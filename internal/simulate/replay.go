// Package simulate replays the MCBound deployment loop of §III-E
// offline: a virtual clock advances through a historical period, a
// cron-equivalent re-triggers the Training Workflow every β days, and
// the Inference Workflow classifies the jobs accumulated in between —
// the exact sequence the deploy script + cronjob produce on a live
// system, but deterministic and as fast as the components allow.
//
// Where online.Runner exists to *evaluate* the algorithm (it tracks
// ground truth and timing for the paper's experiments), Replay exercises
// the deployed Framework facade itself — the same code path the HTTP
// backend serves — and records an operational timeline.
package simulate

import (
	"context"
	"fmt"
	"io"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/metrics"
	"mcbound/internal/online"
)

// EventKind tags a timeline entry.
type EventKind string

// The two workflow kinds of paper Fig. 1.
const (
	EventTrain EventKind = "train"
	EventInfer EventKind = "infer"
)

// Event is one workflow trigger in the replay.
type Event struct {
	Time time.Time
	Kind EventKind

	// Training fields.
	TrainedOn    int // labeled jobs in the window
	ModelVersion int
	TrainTime    time.Duration

	// Inference fields. Evaluated counts the classified jobs whose
	// Roofline ground truth was computable once they executed; F1 is the
	// macro-F1 of the window's predictions against that truth (0 when
	// nothing was evaluable) — the per-day quality series of Fig. 6.
	Classified  int
	MemoryBound int
	Evaluated   int
	F1          float64
}

// Timeline is the ordered record of a replay.
type Timeline struct {
	Events []Event
}

// Trainings and Inferences count the events by kind.
func (tl *Timeline) Trainings() int  { return tl.count(EventTrain) }
func (tl *Timeline) Inferences() int { return tl.count(EventInfer) }

func (tl *Timeline) count(k EventKind) int {
	n := 0
	for _, e := range tl.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TotalClassified sums the classified jobs across inference triggers.
func (tl *Timeline) TotalClassified() int {
	n := 0
	for _, e := range tl.Events {
		n += e.Classified
	}
	return n
}

// WriteText renders the timeline one line per event in a stable,
// duration-free format (the golden-file representation): train lines
// carry the model version and window size, infer lines the volume,
// memory-bound count and the per-window F1 to three decimals.
func (tl *Timeline) WriteText(w io.Writer) error {
	for _, e := range tl.Events {
		var err error
		switch e.Kind {
		case EventTrain:
			_, err = fmt.Fprintf(w, "%s train v%d on %d jobs\n",
				e.Time.Format("2006-01-02"), e.ModelVersion, e.TrainedOn)
		case EventInfer:
			_, err = fmt.Fprintf(w, "%s infer %d classified %d memory-bound f1=%.3f n=%d\n",
				e.Time.Format("2006-01-02"), e.Classified, e.MemoryBound, e.F1, e.Evaluated)
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", e.Time.Format("2006-01-02"), e.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Replay drives a deployed Framework through a period.
type Replay struct {
	// Framework is the deployed instance (its Config.Beta sets the
	// cron period; Config.Alpha the training window).
	Framework *core.Framework

	// Log, when non-nil, receives one line per workflow trigger.
	Log io.Writer
}

// Run replays [start, end): an initial Training Workflow at start (the
// deploy script), then alternating inference-over-the-last-β-days and
// retraining, until the period is exhausted. Canceling the context
// aborts the replay at the next trigger boundary.
func (r *Replay) Run(ctx context.Context, start, end time.Time) (*Timeline, error) {
	if r.Framework == nil {
		return nil, fmt.Errorf("simulate: nil framework")
	}
	cfg := r.Framework.Config()
	triggers, err := online.Schedule(online.Params{Alpha: cfg.Alpha, Beta: cfg.Beta}, start, end)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	tl := &Timeline{}

	train := func(now time.Time) error {
		rep, err := r.Framework.Train(ctx, now)
		if err != nil {
			return fmt.Errorf("simulate: training at %v: %w", now, err)
		}
		tl.Events = append(tl.Events, Event{
			Time: now, Kind: EventTrain,
			TrainedOn: rep.LabeledJobs, ModelVersion: rep.ModelVersion,
			TrainTime: rep.TrainDuration,
		})
		r.logf("%s train: window [%s, %s) %d jobs, %v",
			now.Format("2006-01-02"), rep.WindowStart.Format("01-02"),
			rep.WindowEnd.Format("01-02"), rep.LabeledJobs, rep.TrainDuration.Round(time.Millisecond))
		return nil
	}

	// Initial deployment.
	if err := train(start); err != nil {
		return nil, err
	}

	for _, tr := range triggers {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("simulate: replay canceled: %w", err)
		}
		now, windowEnd := tr.InferStart, tr.InferEnd
		// Fetch the window's submissions once so predictions can later be
		// reconciled index-for-index against their Roofline ground truth.
		jobs, err := r.Framework.Fetcher().FetchSubmitted(ctx, now, windowEnd)
		if err != nil {
			return nil, fmt.Errorf("simulate: inference fetch at %v: %w", now, err)
		}
		ev := Event{Time: now, Kind: EventInfer}
		if len(jobs) > 0 {
			preds, err := r.Framework.ClassifyJobs(ctx, jobs)
			if err != nil {
				return nil, fmt.Errorf("simulate: inference at %v: %w", now, err)
			}
			ev.Classified = len(preds)
			conf := metrics.NewConfusion()
			for i, p := range preds {
				if p.Class == "memory-bound" {
					ev.MemoryBound++
				}
				pt, err := r.Framework.Characterizer().Characterize(jobs[i])
				if err != nil {
					continue // truth never arrives for this job
				}
				conf.Add(pt.Label, p.Label)
				ev.Evaluated++
			}
			if ev.Evaluated > 0 {
				ev.F1 = conf.F1Macro()
			}
		}
		tl.Events = append(tl.Events, ev)
		r.logf("%s infer: %d jobs classified (%d memory-bound, f1=%.3f over %d)",
			now.Format("2006-01-02"), ev.Classified, ev.MemoryBound, ev.F1, ev.Evaluated)

		// Cron fires at the end of the β window (skip past the period).
		if windowEnd.Before(end) {
			if err := train(windowEnd); err != nil {
				return nil, err
			}
		}
	}
	return tl, nil
}

func (r *Replay) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	fmt.Fprintf(r.Log, format+"\n", args...)
}
