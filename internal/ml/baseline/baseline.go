// Package baseline implements the simple comparator of paper §V.C.a: a
// lookup table mapping the tuple (job name, #cores requested) to a
// memory/compute-bound label — equivalent to a 1-nearest-neighbor on
// those two features. Unseen tuples fall back to the majority class of
// the training window.
package baseline

import (
	"fmt"
	"sync"

	"mcbound/internal/job"
)

type key struct {
	name  string
	cores int
}

type counts struct {
	mem, comp int
}

// Classifier is the (job name, #cores) lookup baseline. It implements
// ml.JobClassifier: it consumes raw jobs, not encodings.
type Classifier struct {
	mu       sync.RWMutex
	table    map[key]counts
	majority job.Label
	trained  bool
}

// New returns an untrained baseline.
func New() *Classifier { return &Classifier{} }

// Name implements ml.JobClassifier.
func (c *Classifier) Name() string { return "baseline" }

// TrainJobs rebuilds the lookup table from the window's jobs and labels,
// replacing any previous table (the paper updates the baseline with the
// same online algorithm as the models).
func (c *Classifier) TrainJobs(jobs []*job.Job, labels []job.Label) error {
	if len(jobs) != len(labels) {
		return fmt.Errorf("baseline: %d jobs vs %d labels", len(jobs), len(labels))
	}
	table := make(map[key]counts)
	memTotal, compTotal := 0, 0
	for i, j := range jobs {
		k := key{name: j.Name, cores: j.CoresRequested}
		ct := table[k]
		switch labels[i] {
		case job.MemoryBound:
			ct.mem++
			memTotal++
		case job.ComputeBound:
			ct.comp++
			compTotal++
		default:
			continue
		}
		table[k] = ct
	}
	if memTotal+compTotal == 0 {
		return fmt.Errorf("baseline: no labeled training jobs")
	}
	maj := job.MemoryBound
	if compTotal > memTotal {
		maj = job.ComputeBound
	}
	c.mu.Lock()
	c.table, c.majority, c.trained = table, maj, true
	c.mu.Unlock()
	return nil
}

// PredictJobs returns the majority label recorded for each job's (name,
// #cores) tuple, or the window majority for unseen tuples.
func (c *Classifier) PredictJobs(jobs []*job.Job) ([]job.Label, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.trained {
		return nil, fmt.Errorf("baseline: model not trained")
	}
	out := make([]job.Label, len(jobs))
	for i, j := range jobs {
		ct, ok := c.table[key{name: j.Name, cores: j.CoresRequested}]
		switch {
		case !ok || ct.mem == ct.comp:
			out[i] = c.majority
		case ct.mem > ct.comp:
			out[i] = job.MemoryBound
		default:
			out[i] = job.ComputeBound
		}
	}
	return out, nil
}
