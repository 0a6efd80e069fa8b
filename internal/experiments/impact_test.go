package experiments

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mcbound/internal/job"
)

func mkJob(id string, nodes int, durMin int, freq job.Frequency, label job.Label) *job.Job {
	submit := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	return &job.Job{
		ID:             id,
		Name:           id,
		NodesAllocated: nodes,
		NodesRequested: nodes,
		FreqRequested:  freq,
		SubmitTime:     submit,
		StartTime:      submit,
		EndTime:        submit.Add(time.Duration(durMin) * time.Minute),
		TrueLabel:      label,
	}
}

func TestEstimateImpactKnownValues(t *testing.T) {
	f := PaperImpactFactors()
	jobs := []*job.Job{
		mkJob("m1", 1, 100, job.FreqBoost, job.MemoryBound),   // 6000 s
		mkJob("c1", 1, 225, job.FreqNormal, job.ComputeBound), // 13500 s
		mkJob("ok", 1, 60, job.FreqNormal, job.MemoryBound),   // already right
	}
	preds := []job.Label{job.MemoryBound, job.ComputeBound, job.MemoryBound}
	est, err := EstimateImpact(jobs, preds, f)
	if err != nil {
		t.Fatal(err)
	}
	if est.MemBoostJobs != 1 || est.CompNormalJobs != 1 {
		t.Fatalf("counts = %d/%d", est.MemBoostJobs, est.CompNormalJobs)
	}
	// The paper's per-job numbers: 5000 W * 15% = 750 W saved; energy
	// = 750 W * 6000 s = 4.5 MJ; boost saves 10% of 13500 s = 1350 s
	// (~22.5 minutes — "around 20 minutes of computation per job").
	if math.Abs(est.PowerSavedWAvg-750) > 1e-9 {
		t.Errorf("power saved = %g W, want 750", est.PowerSavedWAvg)
	}
	if math.Abs(est.EnergySavedJ-4.5e6) > 1e-3 {
		t.Errorf("energy = %g J, want 4.5e6", est.EnergySavedJ)
	}
	if est.TimeSavedPerJob != 1350*time.Second {
		t.Errorf("time saved = %v, want 22m30s", est.TimeSavedPerJob)
	}
}

func TestEstimateImpactMismatch(t *testing.T) {
	if _, err := EstimateImpact([]*job.Job{mkJob("a", 1, 1, job.FreqNormal, job.MemoryBound)}, nil, PaperImpactFactors()); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

// The report is the only rendering of the estimate: its counts must be a
// partition of at most the classified month, and the same trace seed
// must print the same bytes.
func TestReportImpactSmallScale(t *testing.T) {
	env := tinyEnv(t)
	est, jobs, err := testMonthImpact(env)
	if err != nil {
		t.Fatal(err)
	}
	if jobs == 0 || est.MemBoostJobs+est.CompNormalJobs == 0 {
		t.Fatalf("nothing to estimate: %d jobs, %+v", jobs, est)
	}
	if est.MemBoostJobs+est.CompNormalJobs > jobs {
		t.Errorf("%d + %d mode changes over %d jobs", est.MemBoostJobs, est.CompNormalJobs, jobs)
	}
	var first, second bytes.Buffer
	if err := ReportImpact(&first, env, 7); err != nil {
		t.Fatal(err)
	}
	if err := ReportImpact(&second, tinyEnv(t), 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("same seed, different reports:\n%s\n%s", first.Bytes(), second.Bytes())
	}
	if !bytes.Contains(first.Bytes(), []byte("§V.C.d")) {
		t.Errorf("report lacks its section header:\n%s", first.Bytes())
	}
}
