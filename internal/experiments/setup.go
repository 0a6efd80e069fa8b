// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV and §V): each driver regenerates the
// corresponding rows/series from the synthetic trace, using the same
// components a production deployment would.
package experiments

import (
	"fmt"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/roofline"
	"mcbound/internal/store"
	"mcbound/internal/workload"
)

// Env bundles the shared substrate of every experiment: the synthetic
// trace loaded into a jobs data storage — every Framework an experiment
// deploys is built over Store — plus the Fugaku characterizer of the §IV
// analysis.
type Env struct {
	Cfg           workload.Config
	Store         *store.Store
	Characterizer *roofline.Characterizer
	Jobs          []*job.Job // submission-ordered
}

// NewEnv generates a trace for cfg with the given seed and loads it.
func NewEnv(cfg workload.Config, seed uint64) (*Env, error) {
	gen := workload.NewGenerator(cfg, seed)
	jobs, err := gen.Generate()
	if err != nil {
		return nil, fmt.Errorf("experiments: generate: %w", err)
	}
	st := store.New()
	if err := st.Insert(jobs...); err != nil {
		return nil, err
	}
	return &Env{
		Cfg:           cfg,
		Store:         st,
		Characterizer: roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine)),
		Jobs:          jobs,
	}, nil
}

// Paper period boundaries used across the evaluation experiments.
var (
	TestPeriodStart = time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	TestPeriodEnd   = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
)
