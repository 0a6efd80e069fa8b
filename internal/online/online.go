// Package online holds the arithmetic of the MCBound online prediction
// algorithm (paper §III, §V): a Classification Model is retrained once
// every β days on the jobs executed in the last α days (optionally a
// θ-subsample, random or latest), and classifies every job submitted
// during the following β days before its execution. Here live the
// setting (Params), the trigger calendar (Schedule) and the window
// selection (SubsampleIndices, FilterLabeled) — no loop and no model:
// core.Framework is the one implementation of the two workflows, and
// simulate.Replay the one walker of the calendar, whether its target is
// a Framework in process or a running node over HTTP.
package online

import (
	"fmt"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// ThetaMode selects how a θ-subsample is drawn from the α-day window.
type ThetaMode int

const (
	// ThetaAll disables subsampling: use all window data (θ = ∞).
	ThetaAll ThetaMode = iota
	// ThetaRandom samples θ jobs uniformly at random.
	ThetaRandom
	// ThetaLatest takes the θ jobs with the most recent end time.
	ThetaLatest
)

// String names the mode as in the paper's Figs. 9–10.
func (m ThetaMode) String() string {
	switch m {
	case ThetaRandom:
		return "random"
	case ThetaLatest:
		return "latest"
	default:
		return "all"
	}
}

// Params configures one run of the online algorithm.
type Params struct {
	// Alpha is the retraining window length in days: train on jobs
	// executed in the last Alpha days.
	Alpha int
	// Beta is the retraining period in days: retrain once every Beta
	// days and classify the jobs submitted in-between.
	Beta int
	// AlphaPlus, when true, never forgets: the window start stays fixed
	// while its end advances (the paper's α⁺ setting). Alpha then only
	// sets the initial window.
	AlphaPlus bool
	// Theta is the subsample size per retraining (0 = use everything).
	Theta int
	// ThetaMode selects random or latest subsampling when Theta > 0.
	ThetaMode ThetaMode
	// Seed drives the random θ-subsampling.
	Seed uint64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Alpha <= 0 {
		return fmt.Errorf("online: alpha must be positive days, got %d", p.Alpha)
	}
	if p.Beta <= 0 {
		return fmt.Errorf("online: beta must be positive days, got %d", p.Beta)
	}
	if p.Theta < 0 {
		return fmt.Errorf("online: theta must be >= 0, got %d", p.Theta)
	}
	if p.Theta > 0 && p.ThetaMode == ThetaAll {
		return fmt.Errorf("online: theta > 0 requires a sampling mode")
	}
	return nil
}

// String renders the setting compactly, e.g. "α=30 β=1".
func (p Params) String() string {
	s := fmt.Sprintf("α=%d β=%d", p.Alpha, p.Beta)
	if p.AlphaPlus {
		s = fmt.Sprintf("α⁺(%d) β=%d", p.Alpha, p.Beta)
	}
	if p.Theta > 0 {
		s += fmt.Sprintf(" θ=%d(%s)", p.Theta, p.ThetaMode)
	}
	return s
}

// Trigger is one retrain+infer cycle of the schedule.
type Trigger struct {
	// TrainStart/TrainEnd bound the executed-jobs window used for
	// retraining at the start of the cycle.
	TrainStart, TrainEnd time.Time
	// InferStart/InferEnd bound the submitted-jobs window classified by
	// the freshly trained model.
	InferStart, InferEnd time.Time
}

// Schedule enumerates the triggers covering [testStart, testEnd): one per
// β days, each training on the α days preceding its inference window.
func Schedule(p Params, testStart, testEnd time.Time) ([]Trigger, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !testEnd.After(testStart) {
		return nil, fmt.Errorf("online: test end %v not after start %v", testEnd, testStart)
	}
	fixedStart := testStart.AddDate(0, 0, -p.Alpha)
	var out []Trigger
	for t := testStart; t.Before(testEnd); t = t.AddDate(0, 0, p.Beta) {
		end := t.AddDate(0, 0, p.Beta)
		if end.After(testEnd) {
			end = testEnd
		}
		tr := Trigger{TrainEnd: t, InferStart: t, InferEnd: end}
		if p.AlphaPlus {
			tr.TrainStart = fixedStart
		} else {
			tr.TrainStart = t.AddDate(0, 0, -p.Alpha)
		}
		out = append(out, tr)
	}
	return out, nil
}

// SubsampleIndices returns the indices of the θ-subsample over a window
// of n jobs ordered by ascending end time. With ThetaAll or θ >= n it
// returns nil, meaning "use everything".
func SubsampleIndices(p Params, n int, rng *stats.RNG) []int {
	if p.Theta <= 0 || p.Theta >= n || p.ThetaMode == ThetaAll {
		return nil
	}
	switch p.ThetaMode {
	case ThetaLatest:
		idx := make([]int, p.Theta)
		for i := range idx {
			idx[i] = n - p.Theta + i
		}
		return idx
	default: // ThetaRandom
		perm := rng.Perm(n)[:p.Theta]
		return perm
	}
}

// FilterLabeled splits a characterized window into the rows usable for
// supervised training, dropping jobs the characterizer skipped.
func FilterLabeled(jobs []*job.Job) (kept []*job.Job, labels []job.Label) {
	kept, labels = make([]*job.Job, 0, len(jobs)), make([]job.Label, 0, len(jobs))
	for _, j := range jobs {
		if j.TrueLabel == job.Unknown {
			continue
		}
		kept = append(kept, j)
		labels = append(labels, j.TrueLabel)
	}
	return kept, labels
}
