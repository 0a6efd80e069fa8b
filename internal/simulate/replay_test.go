package simulate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/store"
)

// replayStore seeds days days of two-app jobs starting January 1st, 2024.
func replayStore(t *testing.T, days int) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	for day := 0; day < days; day++ {
		for i := 0; i < 4; i++ {
			for _, app := range []struct {
				name         string
				perfGF, bwGB float64
			}{
				{"memapp", 60, 60},
				{"compapp", 500, 10},
			} {
				submit := start.AddDate(0, 0, day).Add(time.Duration(i) * time.Hour)
				durSec := 1200.0
				err := st.Insert(&job.Job{
					ID:             fmt.Sprintf("r%05d", seq),
					User:           "u0001",
					Name:           app.name,
					Environment:    "gcc/12.2",
					CoresRequested: 48,
					NodesRequested: 1,
					NodesAllocated: 1,
					FreqRequested:  job.FreqNormal,
					SubmitTime:     submit,
					StartTime:      submit.Add(time.Minute),
					EndTime:        submit.Add(21 * time.Minute),
					Counters: job.PerfCounters{
						Perf2: app.perfGF * 1e9 * durSec,
						Perf4: app.bwGB * 1e9 * durSec * job.CoresPerCMG / job.CacheLineBytes,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				seq++
			}
		}
	}
	return st
}

func TestReplayTimeline(t *testing.T) {
	st := replayStore(t, 40)
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta = 10, 2
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	r := Over(fw)
	r.Log = &logBuf

	start := time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
	end := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	tl, err := r.Run(context.Background(), start, end)
	if err != nil {
		t.Fatal(err)
	}

	// 10 days at β=2: 5 inference windows; initial training + a retrain
	// after each window except the one touching end.
	sum := tl.Summary()
	if sum.Inferences != 5 {
		t.Errorf("inferences = %d, want 5", sum.Inferences)
	}
	if sum.Trainings != 5 {
		t.Errorf("trainings = %d, want 5 (initial + 4 cron)", sum.Trainings)
	}
	// Every job submitted in the period must be classified exactly once.
	if sum.Classified != 10*8 {
		t.Errorf("classified %d jobs, want 80", sum.Classified)
	}
	// The two apps are balanced, so roughly half memory-bound.
	mem := 0
	for _, e := range tl.Events {
		if e.Kind == EventInfer {
			mem += e.MemoryBound
		}
	}
	if mem != 40 {
		t.Errorf("memory-bound predictions = %d, want 40", mem)
	}
	// Events must be time-ordered.
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Time.Before(tl.Events[i-1].Time) {
			t.Fatal("timeline out of order")
		}
	}
	if !strings.Contains(logBuf.String(), "train: window") || !strings.Contains(logBuf.String(), "infer:") {
		t.Error("log output missing workflow lines")
	}
}

func TestReplayValidation(t *testing.T) {
	r := &Replay{}
	now := time.Now()
	if _, err := r.Run(context.Background(), now, now.Add(time.Hour)); err == nil {
		t.Error("accepted a replay with no target")
	}
	st := replayStore(t, 40)
	fw, err := core.New(core.DefaultConfig(), fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	r = Over(fw)
	if _, err := r.Run(context.Background(), now, now); err == nil {
		t.Error("accepted empty period")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, now, now.AddDate(0, 0, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled replay returned %v, want a cancellation, not a timeline of failed triggers", err)
	}
}

func TestReplayModelVersionsAdvance(t *testing.T) {
	st := replayStore(t, 40)
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta = 10, 3
	cfg.ModelDir = t.TempDir()
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	r := Over(fw)
	start := time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
	tl, err := r.Run(context.Background(), start, start.AddDate(0, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	var versions []int
	for _, e := range tl.Events {
		if e.Kind == EventTrain {
			versions = append(versions, e.ModelVersion)
		}
	}
	for i, v := range versions {
		if v != i+1 {
			t.Fatalf("versions = %v, want 1,2,...", versions)
		}
	}
}

// TestReplayRecordsFailedTriggers: a Training Workflow with nothing to
// train on and a window with no model to answer it are timeline events
// with their cause, not the end of the replay; the triggers after the
// trace begins are served as if nothing had happened before them.
func TestReplayRecordsFailedTriggers(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta = 2, 1
	fw, err := core.New(cfg, fetch.StoreBackend{Store: replayStore(t, 10)})
	if err != nil {
		t.Fatal(err)
	}
	// The trace begins January 1st: the first trigger has an empty
	// window behind it and that day's submissions in front of it.
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	tl, err := Over(fw).Run(context.Background(), start, start.AddDate(0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := tl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if len(lines) != 6 ||
		!strings.HasPrefix(lines[0], "2024-01-01 train failed: core: no characterizable jobs") ||
		!strings.HasPrefix(lines[1], "2024-01-01 infer failed: core: no trained model") ||
		lines[2] != "2024-01-02 train v0 on 8 jobs" ||
		lines[3] != "2024-01-02 infer 8 classified 4 memory-bound f1=1.000 n=8" {
		t.Errorf("timeline:\n%s", text.String())
	}
	sum := tl.Summary()
	if sum.SkippedTrainings != 1 || sum.UnservedWindows != 1 || sum.Trainings != 2 || sum.Classified != 16 || sum.FailedFetches != 0 {
		t.Errorf("summary = %+v", sum)
	}
}

// countingTarget counts the triggers that reach the target behind it.
type countingTarget struct {
	Target
	trains, windows int
}

func (c *countingTarget) Train(ctx context.Context, now time.Time) (*core.TrainReport, error) {
	c.trains++
	return c.Target.Train(ctx, now)
}

func (c *countingTarget) ClassifyJobs(ctx context.Context, jobs []*job.Job) ([]core.Prediction, error) {
	c.windows++
	return c.Target.ClassifyJobs(ctx, jobs)
}

// TestReplayFeedErrorEndsTheRun: Feed is handed the history before
// start, then each window's completions once the window was served; a
// Feed that fails ends the replay with its error (records may have been
// stored, so nothing is sent again) and no later trigger reaches the
// target.
func TestReplayFeedErrorEndsTheRun(t *testing.T) {
	st := replayStore(t, 40)
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta = 10, 2
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
	target := &countingTarget{Target: fw}
	storageFull := errors.New("storage full")
	var fed []int
	r := Over(fw)
	r.Target = target
	r.Feed = func(_ context.Context, executed []*job.Job) error {
		fed = append(fed, len(executed))
		if len(fed) == 2 {
			return storageFull
		}
		return nil
	}
	tl, err := r.Run(context.Background(), start, start.AddDate(0, 0, 10))
	if !errors.Is(err, storageFull) || tl != nil {
		t.Fatalf("Run = %v, %v; want the Feed error and no timeline", tl, err)
	}
	history, window := len(st.ExecutedBetween(time.Time{}, start)), len(st.ExecutedBetween(start, start.AddDate(0, 0, 2)))
	if len(fed) != 2 || fed[0] != history || fed[1] != window || history == 0 || window == 0 {
		t.Errorf("Feed was handed %v records; want the %d before start, then the first window's %d", fed, history, window)
	}
	if target.trains != 1 || target.windows != 1 {
		t.Errorf("%d trains and %d windows reached the target, want the first trigger's only", target.trains, target.windows)
	}
}
