package baseline

import (
	"testing"

	"mcbound/internal/job"
)

func mk(name string, cores int) *job.Job {
	return &job.Job{ID: name, Name: name, CoresRequested: cores}
}

func TestLookupByNameAndCores(t *testing.T) {
	c := New()
	jobs := []*job.Job{mk("a", 48), mk("a", 48), mk("b", 96)}
	labels := []job.Label{job.MemoryBound, job.MemoryBound, job.ComputeBound}
	if err := c.TrainJobs(jobs, labels); err != nil {
		t.Fatal(err)
	}
	preds, err := c.PredictJobs([]*job.Job{mk("a", 48), mk("b", 96)})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound || preds[1] != job.ComputeBound {
		t.Errorf("preds = %v", preds)
	}
	if len(c.table) != 2 {
		t.Errorf("table size = %d", len(c.table))
	}
}

func TestCoresDisambiguates(t *testing.T) {
	c := New()
	jobs := []*job.Job{mk("run.sh", 48), mk("run.sh", 96)}
	labels := []job.Label{job.MemoryBound, job.ComputeBound}
	if err := c.TrainJobs(jobs, labels); err != nil {
		t.Fatal(err)
	}
	preds, err := c.PredictJobs([]*job.Job{mk("run.sh", 48), mk("run.sh", 96)})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound || preds[1] != job.ComputeBound {
		t.Errorf("same name, different cores not separated: %v", preds)
	}
}

func TestUnseenFallsBackToMajority(t *testing.T) {
	c := New()
	jobs := []*job.Job{mk("a", 1), mk("b", 1), mk("c", 1)}
	labels := []job.Label{job.ComputeBound, job.ComputeBound, job.MemoryBound}
	if err := c.TrainJobs(jobs, labels); err != nil {
		t.Fatal(err)
	}
	preds, err := c.PredictJobs([]*job.Job{mk("never-seen", 42)})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.ComputeBound {
		t.Errorf("fallback = %v, want the compute-bound majority", preds[0])
	}
}

func TestTupleTieFallsBackToMajority(t *testing.T) {
	c := New()
	jobs := []*job.Job{mk("a", 1), mk("a", 1), mk("m", 1), mk("m", 2), mk("m", 3)}
	labels := []job.Label{
		job.MemoryBound, job.ComputeBound, // tied tuple
		job.MemoryBound, job.MemoryBound, job.MemoryBound,
	}
	if err := c.TrainJobs(jobs, labels); err != nil {
		t.Fatal(err)
	}
	preds, err := c.PredictJobs([]*job.Job{mk("a", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound {
		t.Errorf("tie = %v, want window majority", preds[0])
	}
}

func TestRetrainReplacesTable(t *testing.T) {
	c := New()
	if err := c.TrainJobs([]*job.Job{mk("a", 1)}, []job.Label{job.MemoryBound}); err != nil {
		t.Fatal(err)
	}
	if err := c.TrainJobs([]*job.Job{mk("a", 1)}, []job.Label{job.ComputeBound}); err != nil {
		t.Fatal(err)
	}
	preds, err := c.PredictJobs([]*job.Job{mk("a", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.ComputeBound {
		t.Errorf("retrain did not replace the table: %v", preds[0])
	}
}

func TestUnknownLabelsIgnored(t *testing.T) {
	c := New()
	jobs := []*job.Job{mk("a", 1), mk("b", 1)}
	if err := c.TrainJobs(jobs, []job.Label{job.Unknown, job.Unknown}); err == nil {
		t.Error("accepted all-unknown training window")
	}
	if err := c.TrainJobs(jobs, []job.Label{job.MemoryBound, job.Unknown}); err != nil {
		t.Fatal(err)
	}
	if len(c.table) != 1 {
		t.Errorf("table size = %d, want 1", len(c.table))
	}
}

func TestErrors(t *testing.T) {
	c := New()
	if _, err := c.PredictJobs([]*job.Job{mk("a", 1)}); err == nil {
		t.Error("predict before train succeeded")
	}
	if err := c.TrainJobs([]*job.Job{mk("a", 1)}, nil); err == nil {
		t.Error("accepted length mismatch")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "baseline" {
		t.Error("wrong name")
	}
}
