// Package simulate replays the MCBound deployment loop of §III-E
// offline: a virtual clock advances through a historical period, a
// cron-equivalent re-triggers the Training Workflow every β days, and
// the Inference Workflow classifies the jobs accumulated in between —
// the exact sequence the deploy script + cronjob produce on a live
// system, but deterministic and as fast as the components allow.
//
// Replay is the only walker of online.Schedule in the repository. It
// drives a Target — the deployed Framework facade itself, the code the
// HTTP backend serves, or that backend from outside through its routes —
// so one Timeline is both the operational record of a deployment and,
// summed up, the paper's evaluation of it (Figs. 6–10): quality against
// Roofline ground truth, runtime overhead, and what degraded mode cost
// when the jobs data storage or a fit failed.
package simulate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/metrics"
	"mcbound/internal/online"
	"mcbound/internal/roofline"
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

	// Err is why the trigger did not do its work, nil when it did: a
	// Training Workflow that failed and left the previous model serving
	// (an error after the fit, i.e. persisting it, included), or an
	// inference window nothing answered. FetchFailed marks the jobs data
	// storage as the cause.
	Err         error
	FetchFailed bool

	// Training fields.
	TrainedOn    int // rows the model was fitted on
	ModelVersion int
	TrainTime    time.Duration

	// Inference fields. Evaluated counts the classified jobs whose
	// Roofline ground truth was computable once they executed; Confusion
	// is their matrix (nil when there were none) and F1 its macro-F1 (0
	// then) — the per-day quality series of Fig. 6.
	Classified  int
	MemoryBound int
	Evaluated   int
	F1          float64
	Confusion   *metrics.Confusion

	// How the window was served: the wall time of its ClassifyJobs call,
	// whether the lookup net answered because no vector model had ever
	// trained, and how much older than this window's own trigger the
	// serving model was (0 = fresh, or a target that does not say).
	ClassifyTime time.Duration
	Degraded     bool
	Staleness    time.Duration
}

// ScoreWindow builds the inference event of the window starting at t
// from its predictions, index-aligned with the window's jobs; truth
// reports job i's ground-truth label, or false when it never arrives.
func ScoreWindow(t time.Time, predicted []job.Label, truth func(i int) (job.Label, bool)) Event {
	ev := Event{Time: t, Kind: EventInfer, Classified: len(predicted)}
	conf := metrics.NewConfusion()
	for i, p := range predicted {
		if p == job.MemoryBound {
			ev.MemoryBound++
		}
		if actual, ok := truth(i); ok {
			conf.Add(actual, p)
		}
	}
	if ev.Evaluated = conf.N(); ev.Evaluated > 0 {
		ev.Confusion, ev.F1 = conf, conf.F1Macro()
	}
	return ev
}

// Timeline is the ordered record of a replay.
type Timeline struct {
	Events []Event
}

// Summary is what a period's events add up to: the quantities of the
// paper's evaluation and the degraded-mode account.
type Summary struct {
	// Quality over every evaluated prediction of the period (the
	// paper's evaluate script), not a mean of the window F1s.
	Confusion *metrics.Confusion
	F1        float64

	Trainings  int // Training Workflows that published a model
	Inferences int // inference windows walked
	Classified int // jobs classified before execution

	// Runtime overhead. Train time is the fit alone (characterization
	// and encoding excluded, paper §V-B); the per-job inference time is
	// the whole ClassifyJobs call, encoding included.
	MeanTrainTime      time.Duration
	MeanTrainedOn      float64
	MeanClassifyPerJob time.Duration

	// Degraded mode: a replay over a flaky jobs data storage keeps
	// going. A failed Training Workflow keeps the previous model, and
	// inference before any successful fit answers from the lookup net.
	SkippedTrainings int           // triggers that kept the previous model (failed fetch, empty window or failed fit)
	FailedFetches    int           // train and inference fetches the storage failed
	UnservedWindows  int           // windows with submissions but no fetch, model or net to answer them
	FallbackWindows  int           // windows answered by the lookup net
	StaleWindows     int           // windows answered by a model from an earlier trigger
	MaxStaleness     time.Duration // worst such model age
}

// Summary adds the timeline up.
func (tl *Timeline) Summary() Summary {
	s := Summary{Confusion: metrics.NewConfusion()}
	var trainTime, classifyTime time.Duration
	var trainedOn int
	for _, e := range tl.Events {
		if e.FetchFailed {
			s.FailedFetches++
		}
		switch {
		case e.Kind == EventTrain && e.Err != nil:
			s.SkippedTrainings++
		case e.Kind == EventTrain:
			s.Trainings++
			trainTime += e.TrainTime
			trainedOn += e.TrainedOn
		case e.Err != nil:
			s.Inferences++
			s.UnservedWindows++
		default:
			s.Inferences++
			s.Classified += e.Classified
			s.Confusion.Merge(e.Confusion)
			classifyTime += e.ClassifyTime
			if e.Degraded {
				s.FallbackWindows++
			}
			if e.Staleness > 0 {
				s.StaleWindows++
				s.MaxStaleness = max(s.MaxStaleness, e.Staleness)
			}
		}
	}
	s.F1 = s.Confusion.F1Macro()
	if s.Trainings > 0 {
		s.MeanTrainTime = trainTime / time.Duration(s.Trainings)
		s.MeanTrainedOn = float64(trainedOn) / float64(s.Trainings)
	}
	if s.Classified > 0 {
		s.MeanClassifyPerJob = classifyTime / time.Duration(s.Classified)
	}
	return s
}

// WriteText renders the timeline one line per event in a stable,
// duration-free format (the golden-file representation): train lines
// carry the model version and window size, infer lines the volume,
// memory-bound count and the per-window F1 to three decimals, and a
// trigger that failed its cause.
func (tl *Timeline) WriteText(w io.Writer) error {
	for _, e := range tl.Events {
		var err error
		day := e.Time.Format("2006-01-02")
		switch {
		case e.Err != nil:
			_, err = fmt.Fprintf(w, "%s %s failed: %v\n", day, e.Kind, e.Err)
		case e.Kind == EventTrain:
			_, err = fmt.Fprintf(w, "%s train v%d on %d jobs\n", day, e.ModelVersion, e.TrainedOn)
		case e.Kind == EventInfer:
			_, err = fmt.Fprintf(w, "%s infer %d classified %d memory-bound f1=%.3f n=%d\n",
				day, e.Classified, e.MemoryBound, e.F1, e.Evaluated)
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", day, e.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Target is what a replay drives: the two workflows of paper Fig. 1 as a
// deployed instance serves them. *core.Framework is one as it stands; a
// running node is one through its POST /v1/train and POST /v1/classify.
type Target interface {
	Train(ctx context.Context, now time.Time) (*core.TrainReport, error)
	ClassifyJobs(ctx context.Context, jobs []*job.Job) ([]core.Prediction, error)
}

// modelAger is what a Target may have besides, as the Framework does: a
// window it served is then recorded with its model's staleness.
type modelAger interface {
	ModelAge(now time.Time) (age time.Duration, ok bool)
}

// Replay drives a deployed instance through a period of a trace.
type Replay struct {
	Target Target

	// The trace side. Params is the schedule (β the cron period, α the
	// training window), Trace fetches each window's submissions and Truth
	// labels them once they have executed. Over fills all three from the
	// Framework it is handed.
	Params online.Params
	Trace  *fetch.Fetcher
	Truth  *roofline.Characterizer

	// Feed, when non-nil, hands a target whose storage starts empty the
	// trace as time passes: every job executed before start, then each
	// window's completions before the next Training Workflow. Its error
	// ends the replay.
	Feed func(ctx context.Context, executed []*job.Job) error

	// Log, when non-nil, receives one line per workflow trigger.
	Log io.Writer
}

// Over replays the trace a deployed Framework already sits on: the
// Framework is the target, and its schedule, Data Fetcher and Job
// Characterizer are the trace side.
func Over(fw *core.Framework) *Replay {
	return &Replay{Target: fw, Params: fw.Config().Params, Trace: fw.Fetcher(), Truth: fw.Characterizer()}
}

// Run replays [start, end): a Training Workflow at start (the deploy
// script), then alternating inference-over-the-next-β-days and
// retraining (the cron job) until the period is exhausted. A trigger
// that fails — the storage is down, the window is empty, the fit is
// refused — is recorded with its cause and the replay goes on, served
// by whatever the target still publishes. Canceling the context aborts
// the replay at the next trigger boundary.
func (r *Replay) Run(ctx context.Context, start, end time.Time) (*Timeline, error) {
	if r.Target == nil || r.Trace == nil || r.Truth == nil {
		return nil, fmt.Errorf("simulate: replay needs a target, a trace fetcher and a characterizer")
	}
	triggers, err := online.Schedule(r.Params, start, end)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	tl := &Timeline{}
	if err := r.feed(ctx, time.Time{}, start); err != nil {
		return nil, err
	}
	for _, tr := range triggers {
		for _, step := range []func(context.Context, online.Trigger) (Event, error){r.train, r.infer} {
			ev, err := step(ctx, tr)
			// A trigger cut short by cancellation did not fail; the
			// replay did not finish.
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("simulate: replay canceled: %w", cerr)
			}
			if err != nil {
				return nil, err
			}
			tl.Events = append(tl.Events, ev)
		}
		// The window has elapsed: its completed jobs are history the next
		// training window may draw on.
		if err := r.feed(ctx, tr.InferStart, tr.InferEnd); err != nil {
			return nil, err
		}
	}
	return tl, nil
}

// feed hands Feed the trace's jobs executed in [start, end).
func (r *Replay) feed(ctx context.Context, start, end time.Time) error {
	if r.Feed == nil {
		return nil
	}
	executed, err := r.Trace.FetchExecuted(ctx, start, end)
	if err == nil {
		err = r.Feed(ctx, executed)
	}
	if err != nil {
		return fmt.Errorf("simulate: feed of [%v, %v): %w", start, end, err)
	}
	return nil
}

// train runs the trigger's Training Workflow; its failure is an event,
// not an error.
func (r *Replay) train(ctx context.Context, tr online.Trigger) (Event, error) {
	now := tr.TrainEnd
	ev := Event{Time: now, Kind: EventTrain}
	rep, err := r.Target.Train(ctx, now)
	if err != nil {
		ev.Err, ev.FetchFailed = err, errors.Is(err, core.ErrTrainFetch)
		r.logf("%s train failed: %v", now.Format("2006-01-02"), err)
		return ev, nil
	}
	ev.TrainedOn, ev.ModelVersion, ev.TrainTime = rep.FittedJobs, rep.ModelVersion, rep.TrainDuration
	r.logf("%s train: window [%s, %s) %d jobs, %v",
		now.Format("2006-01-02"), rep.WindowStart.Format("01-02"),
		rep.WindowEnd.Format("01-02"), rep.FittedJobs, rep.TrainDuration.Round(time.Millisecond))
	return ev, nil
}

// infer classifies the trigger's window of submissions and scores the
// predictions against the Roofline ground truth the jobs' execution
// later produced. A window the storage would not deliver, or that found
// neither a model nor the lookup net, is an event; a published model
// that fails to predict is an error.
func (r *Replay) infer(ctx context.Context, tr online.Trigger) (Event, error) {
	now := tr.InferStart
	ev := Event{Time: now, Kind: EventInfer}
	// Fetch the window's submissions once so predictions can be
	// reconciled index-for-index against their ground truth.
	jobs, err := r.Trace.FetchSubmitted(ctx, now, tr.InferEnd)
	if err != nil {
		ev.Err, ev.FetchFailed = err, true
	} else if len(jobs) > 0 {
		t0 := time.Now()
		preds, err := r.Target.ClassifyJobs(ctx, jobs)
		elapsed := time.Since(t0)
		switch {
		case errors.Is(err, core.ErrNotTrained):
			ev.Err = err
		case err != nil:
			return ev, fmt.Errorf("simulate: inference at %v: %w", now, err)
		case len(preds) != len(jobs):
			return ev, fmt.Errorf("simulate: inference at %v: %d predictions for %d jobs", now, len(preds), len(jobs))
		default:
			labels := make([]job.Label, len(preds))
			for i, p := range preds {
				labels[i] = p.Label
			}
			ev = ScoreWindow(now, labels, func(i int) (job.Label, bool) {
				pt, err := r.Truth.Characterize(jobs[i])
				return pt.Label, err == nil
			})
			ev.ClassifyTime, ev.Degraded = elapsed, preds[0].Degraded
			if t, ok := r.Target.(modelAger); ok {
				if age, ok := t.ModelAge(now); ok && age > 0 {
					ev.Staleness = age
				}
			}
		}
	}
	if ev.Err != nil {
		r.logf("%s infer failed: %v", now.Format("2006-01-02"), ev.Err)
	} else {
		r.logf("%s infer: %d jobs classified (%d memory-bound, f1=%.3f over %d)",
			now.Format("2006-01-02"), ev.Classified, ev.MemoryBound, ev.F1, ev.Evaluated)
	}
	return ev, nil
}

func (r *Replay) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	fmt.Fprintf(r.Log, format+"\n", args...)
}
