package roofline

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mcbound/internal/job"
)

func fugakuModel() Model { return ModelFor(job.FugakuSpec()) }

func TestRidgePoint(t *testing.T) {
	m := fugakuModel()
	ridge := m.RidgePoint()
	if math.Abs(ridge-3380.0/1024.0) > 1e-12 {
		t.Errorf("ridge = %g", ridge)
	}
}

func TestAttainableRoofShape(t *testing.T) {
	m := fugakuModel()
	ridge := m.RidgePoint()
	// Bandwidth-limited region: attainable = op * bw.
	if got := m.Attainable(ridge / 2); math.Abs(got-ridge/2*1024) > 1e-9 {
		t.Errorf("attainable below ridge = %g", got)
	}
	// Compute-limited region: flat at peak.
	if got := m.Attainable(ridge * 10); got != 3380 {
		t.Errorf("attainable above ridge = %g, want peak", got)
	}
	// At the ridge both constraints are equal.
	if got := m.Attainable(ridge); math.Abs(got-3380) > 1e-9 {
		t.Errorf("attainable at ridge = %g", got)
	}
}

func TestClassifyBoundary(t *testing.T) {
	m := fugakuModel()
	ridge := m.RidgePoint()
	if m.Classify(ridge) != job.MemoryBound {
		t.Error("op == ridge must be memory-bound (paper labels > only)")
	}
	if m.Classify(ridge+1e-9) != job.ComputeBound {
		t.Error("op just above ridge must be compute-bound")
	}
	if m.Classify(0.01) != job.MemoryBound || m.Classify(100) != job.ComputeBound {
		t.Error("far-from-ridge classification wrong")
	}
}

// syntheticJob builds a completed job whose counters encode exactly the
// given per-node performance (GFlop/s) and bandwidth (GB/s).
func syntheticJob(perfGF, bwGB float64, durSec float64, nodes int) *job.Job {
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	flops := perfGF * 1e9 * durSec * float64(nodes)
	bytes := bwGB * 1e9 * durSec * float64(nodes)
	return &job.Job{
		ID:             "t1",
		User:           "u",
		NodesAllocated: nodes,
		StartTime:      start,
		EndTime:        start.Add(time.Duration(durSec * float64(time.Second))),
		Counters: job.PerfCounters{
			// All flops via perf2 and all traffic via perf4 keeps the
			// inversion exact.
			Perf2: flops,
			Perf4: bytes * job.CoresPerCMG / job.CacheLineBytes,
		},
	}
}

func TestCharacterizeInvertsEquations(t *testing.T) {
	c := NewCharacterizer(fugakuModel())
	pt, err := c.Characterize(syntheticJob(100, 50, 600, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Performance-100) > 1e-6 {
		t.Errorf("performance = %g, want 100", pt.Performance)
	}
	if math.Abs(pt.Bandwidth-50) > 1e-6 {
		t.Errorf("bandwidth = %g, want 50", pt.Bandwidth)
	}
	if math.Abs(pt.Intensity-2) > 1e-9 {
		t.Errorf("intensity = %g, want 2", pt.Intensity)
	}
	if pt.Label != job.MemoryBound {
		t.Errorf("label = %v, want memory-bound (op 2 < ridge 3.3)", pt.Label)
	}

	pt, err = c.Characterize(syntheticJob(400, 50, 600, 4))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Label != job.ComputeBound {
		t.Errorf("label = %v, want compute-bound (op 8)", pt.Label)
	}
}

func TestCharacterizeErrors(t *testing.T) {
	c := NewCharacterizer(fugakuModel())

	j := syntheticJob(100, 50, 600, 4)
	j.EndTime = time.Time{}
	if _, err := c.Characterize(j); !errors.Is(err, ErrNotCompleted) {
		t.Errorf("missing end time: err = %v", err)
	}

	j = syntheticJob(100, 50, 600, 4)
	j.EndTime = j.StartTime
	if _, err := c.Characterize(j); !errors.Is(err, ErrZeroDuration) {
		t.Errorf("zero duration: err = %v", err)
	}

	j = syntheticJob(100, 50, 600, 4)
	j.NodesAllocated = 0
	if _, err := c.Characterize(j); !errors.Is(err, ErrZeroNodes) {
		t.Errorf("zero nodes: err = %v", err)
	}

	j = syntheticJob(100, 50, 600, 4)
	j.Counters.Perf4, j.Counters.Perf5 = 0, 0
	if _, err := c.Characterize(j); !errors.Is(err, ErrNoMemoryMoved) {
		t.Errorf("zero bytes: err = %v", err)
	}
}

func TestGenerateLabels(t *testing.T) {
	c := NewCharacterizer(fugakuModel())
	jobs := []*job.Job{
		syntheticJob(100, 50, 600, 4), // memory-bound
		syntheticJob(400, 50, 600, 4), // compute-bound
		syntheticJob(100, 50, 600, 0), // uncharacterizable
	}
	labeled, skipped, quarantined := c.GenerateLabels(jobs)
	if labeled != 2 || skipped != 1 || quarantined != 0 {
		t.Fatalf("labeled/skipped/quarantined = %d/%d/%d, want 2/1/0", labeled, skipped, quarantined)
	}
	if jobs[0].TrueLabel != job.MemoryBound || jobs[1].TrueLabel != job.ComputeBound {
		t.Errorf("labels = %v, %v", jobs[0].TrueLabel, jobs[1].TrueLabel)
	}
	if jobs[2].TrueLabel != job.Unknown {
		t.Errorf("skipped job label = %v, want unknown", jobs[2].TrueLabel)
	}
}

func TestCharacterizeNormalization(t *testing.T) {
	// Doubling nodes and keeping total counters fixed halves the
	// per-node performance but not the label-determining intensity.
	c := NewCharacterizer(fugakuModel())
	j1 := syntheticJob(200, 100, 600, 1)
	pt1, err := c.Characterize(j1)
	if err != nil {
		t.Fatal(err)
	}
	j2 := syntheticJob(200, 100, 600, 1)
	j2.NodesAllocated = 2
	pt2, err := c.Characterize(j2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt2.Performance-pt1.Performance/2) > 1e-6 {
		t.Errorf("per-node normalization broken: %g vs %g", pt2.Performance, pt1.Performance)
	}
	if math.Abs(pt2.Intensity-pt1.Intensity) > 1e-9 {
		t.Errorf("intensity changed with node count: %g vs %g", pt2.Intensity, pt1.Intensity)
	}
}

func TestClassificationMonotoneInFlops(t *testing.T) {
	// With fixed memory traffic, increasing flops can only move a job
	// from memory-bound to compute-bound, never back.
	c := NewCharacterizer(fugakuModel())
	f := func(seed uint8) bool {
		base := 1 + float64(seed)
		j := syntheticJob(base, 50, 600, 2)
		lo, _ := c.Characterize(j)
		j.Counters.Perf2 *= 1000
		hi, err := c.Characterize(j)
		if err != nil {
			return false
		}
		if lo.Label == job.ComputeBound && hi.Label == job.MemoryBound {
			return false
		}
		return hi.Intensity > lo.Intensity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCharacterizeRejectsPathologicalCounters(t *testing.T) {
	c := NewCharacterizer(fugakuModel())
	cases := []struct {
		name string
		mut  func(*job.PerfCounters)
	}{
		{"nan perf2", func(p *job.PerfCounters) { p.Perf2 = math.NaN() }},
		{"inf perf4", func(p *job.PerfCounters) { p.Perf4 = math.Inf(1) }},
		{"negative perf5", func(p *job.PerfCounters) { p.Perf5 = -1 }},
		{"overflowing flops", func(p *job.PerfCounters) { p.Perf2, p.Perf3 = math.MaxFloat64, math.MaxFloat64 }},
	}
	for _, tc := range cases {
		j := syntheticJob(100, 50, 600, 4)
		tc.mut(&j.Counters)
		pt, err := c.Characterize(j)
		if !errors.Is(err, job.ErrBadCounters) {
			t.Errorf("%s: err = %v, want job.ErrBadCounters", tc.name, err)
		}
		if pt != (Point{}) {
			t.Errorf("%s: returned a non-zero point %+v for bad counters", tc.name, pt)
		}
	}
}

func TestGenerateLabelsQuarantinesBadCounters(t *testing.T) {
	c := NewCharacterizer(fugakuModel())
	bad := syntheticJob(100, 50, 600, 4)
	bad.Counters.Perf3 = math.NaN()
	jobs := []*job.Job{
		syntheticJob(100, 50, 600, 4), // memory-bound
		bad,                           // pathological -> quarantined
		syntheticJob(100, 50, 600, 0), // uncharacterizable -> skipped
	}
	labeled, skipped, quarantined := c.GenerateLabels(jobs)
	if labeled != 1 || skipped != 1 || quarantined != 1 {
		t.Fatalf("labeled/skipped/quarantined = %d/%d/%d, want 1/1/1", labeled, skipped, quarantined)
	}
	if bad.TrueLabel != job.Unknown {
		t.Errorf("quarantined job label = %v, want unknown (must not poison training)", bad.TrueLabel)
	}
}
