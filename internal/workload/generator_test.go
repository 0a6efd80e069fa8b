package workload

import (
	"reflect"
	"testing"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/job"
	"mcbound/internal/roofline"
)

// smallConfig returns a fast test configuration (~200 jobs/day, 3 weeks).
func smallConfig() Config {
	cfg := EvalConfig(0.01)
	cfg.Start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2024, 1, 22, 0, 0, 0, 0, time.UTC)
	cfg.MaintenanceStart = time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC)
	cfg.MaintenanceEnd = time.Date(2024, 1, 12, 0, 0, 0, 0, time.UTC)
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := NewGenerator(cfg, 99).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(cfg, 99).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].User != b[i].User || a[i].Counters != b[i].Counters ||
			!a[i].SubmitTime.Equal(b[i].SubmitTime) {
			t.Fatalf("job %d differs between identical runs", i)
		}
	}
	c, err := NewGenerator(cfg, 100).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i].User != c[i].User || a[i].Name != c[i].Name {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateJobsAreValidAndOrdered(t *testing.T) {
	jobs, err := NewGenerator(smallConfig(), 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("empty trace")
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate id %s", j.ID)
		}
		seen[j.ID] = true
		if i > 0 && jobs[i].SubmitTime.Before(jobs[i-1].SubmitTime) {
			t.Fatalf("jobs not ordered by submission at %d", i)
		}
	}
}

func TestMaintenanceWindowIsEmpty(t *testing.T) {
	cfg := smallConfig()
	jobs, err := NewGenerator(cfg, 2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.SubmitTime.Before(cfg.MaintenanceStart) && j.SubmitTime.Before(cfg.MaintenanceEnd) {
			t.Fatalf("job %s submitted during maintenance (%v)", j.ID, j.SubmitTime)
		}
	}
}

func TestClassBalanceBand(t *testing.T) {
	// At a moderate scale the memory-bound share must sit in a band
	// around the configured 79% (some slack for straddler crossings and
	// population sampling).
	cfg := EvalConfig(0.02)
	jobs, err := NewGenerator(cfg, 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	char := roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine))
	mem, total := 0, 0
	for _, j := range jobs {
		pt, err := char.Characterize(j)
		if err != nil {
			continue
		}
		total++
		if pt.Label == job.MemoryBound {
			mem++
		}
	}
	share := float64(mem) / float64(total)
	if share < 0.60 || share > 0.90 {
		t.Errorf("memory-bound share = %.3f, want within [0.60, 0.90]", share)
	}
}

func TestBatchesShareFeatureStrings(t *testing.T) {
	// The trace must contain batches of identical submissions: the
	// structural property behind the θ-sampling experiment.
	jobs, err := NewGenerator(smallConfig(), 4).Generate()
	if err != nil {
		t.Fatal(err)
	}
	feats := encode.DefaultFeatures()
	counts := map[string]int{}
	for _, j := range jobs {
		counts[encode.FeatureString(j, feats)]++
	}
	dup := 0
	for _, c := range counts {
		if c > 1 {
			dup += c
		}
	}
	if frac := float64(dup) / float64(len(jobs)); frac < 0.5 {
		t.Errorf("duplicated-submission fraction = %.3f, want > 0.5", frac)
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.End = cfg.Start
	if _, err := NewGenerator(cfg, 1).Generate(); err == nil {
		t.Error("accepted End == Start")
	}
	cfg = smallConfig()
	cfg.JobsPerDay = 0
	if _, err := NewGenerator(cfg, 1).Generate(); err == nil {
		t.Error("accepted JobsPerDay == 0")
	}
	cfg = smallConfig()
	cfg.Machine.PeakGFlops = 0
	if _, err := NewGenerator(cfg, 1).Generate(); err == nil {
		t.Error("accepted zero machine peaks")
	}
}

func TestVolumeScalesWithRate(t *testing.T) {
	cfg := smallConfig()
	lo, err := NewGenerator(cfg, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg.JobsPerDay *= 4
	hi, err := NewGenerator(cfg, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(hi)) / float64(len(lo))
	if ratio < 3 || ratio > 5 {
		t.Errorf("4x rate produced %.2fx jobs", ratio)
	}
}

func TestFrequencyMarginalsByClass(t *testing.T) {
	cfg := EvalConfig(0.02)
	jobs, err := NewGenerator(cfg, 6).Generate()
	if err != nil {
		t.Fatal(err)
	}
	char := roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine))
	var memNormal, memTotal, compBoost, compTotal float64
	for _, j := range jobs {
		pt, err := char.Characterize(j)
		if err != nil {
			continue
		}
		if pt.Label == job.MemoryBound {
			memTotal++
			if j.FreqRequested == job.FreqNormal {
				memNormal++
			}
		} else {
			compTotal++
			if j.FreqRequested == job.FreqBoost {
				compBoost++
			}
		}
	}
	// Paper: ~54% of memory-bound at 2.0 GHz, ~31% of compute-bound at
	// 2.2 GHz. Allow wide bands: the per-app idiosyncrasy adds variance.
	if f := memNormal / memTotal; f < 0.35 || f > 0.75 {
		t.Errorf("memory-bound normal share = %.3f", f)
	}
	if f := compBoost / compTotal; f < 0.12 || f > 0.55 {
		t.Errorf("compute-bound boost share = %.3f", f)
	}
}

func TestEvalConfigScaling(t *testing.T) {
	full := EvalConfig(1)
	small := EvalConfig(0.01)
	if small.JobsPerDay >= full.JobsPerDay {
		t.Error("scale did not shrink JobsPerDay")
	}
	if small.Users >= full.Users || small.InitialApps >= full.InitialApps {
		t.Error("scale did not shrink populations")
	}
	if small.Users < 20 || small.InitialApps < 40 {
		t.Error("population clamps not applied")
	}
	if !small.End.Equal(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("eval period end = %v", small.End)
	}
}

// The full period shrinks the job rate only: the characterization
// keeps the paper's populations at any scale.
func TestFullConfigScaling(t *testing.T) {
	def := DefaultConfig()
	if !reflect.DeepEqual(FullConfig(1), def) {
		t.Error("FullConfig(1) differs from DefaultConfig")
	}
	small := FullConfig(0.01)
	if small.JobsPerDay != 185 || small.Users != def.Users || small.InitialApps != def.InitialApps || !small.End.Equal(def.End) {
		t.Errorf("FullConfig(0.01): %d jobs/day, %d users, %d apps, end %v", small.JobsPerDay, small.Users, small.InitialApps, small.End)
	}
	if FullConfig(1e-9).JobsPerDay != 1 {
		t.Error("job rate not clamped to one a day")
	}
}

func TestInterconnectTrafficOnlyMultiNode(t *testing.T) {
	jobs, err := NewGenerator(smallConfig(), 8).Generate()
	if err != nil {
		t.Fatal(err)
	}
	multiWithComm, multi := 0, 0
	for _, j := range jobs {
		if j.NodesAllocated == 1 && j.Counters.TofuBytes != 0 {
			// Single-node apps never inject into the interconnect; a
			// nonzero value can only come from a doubled allocation of
			// a single-node app, which keeps commGBs == 0.
			t.Fatalf("single-node job %s has Tofu traffic", j.ID)
		}
		if j.NodesAllocated > 1 {
			multi++
			if j.Counters.TofuBytes > 0 {
				multiWithComm++
			}
		}
	}
	if multi == 0 {
		t.Fatal("trace has no multi-node jobs")
	}
	if frac := float64(multiWithComm) / float64(multi); frac < 0.5 {
		t.Errorf("only %.2f of multi-node jobs communicate", frac)
	}
}
