package simulate

// Chaos suite: replays a deployed Framework against a jobs data storage
// whose range queries fail on a seeded schedule, with nothing between
// the storage and the Framework, and checks that the served degraded
// mode — a failed Training Workflow keeps the published model, a window
// with nothing to answer it goes unserved — shows in the timeline
// exactly as the storage's recorded outcomes say. Run via `make chaos`
// (go test -race -run '^TestChaos').

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/online"
	"mcbound/internal/stats"
	"mcbound/internal/store"
)

// The storage's fault mix: each range query fails with probability
// chaosFailRate, and every chaosOutageEvery-th ExecutedBetween call
// fails whatever the draw — the outage no retrain survives.
const (
	chaosFailRate    = 0.3
	chaosOutageEvery = 4
)

var errStorageDown = errors.New("chaos: storage query failed")

// outcome is the result of one range query as the Framework saw it.
type outcome struct {
	failed bool
	jobs   int
}

// failingBackend is the suite's jobs data storage: the store, with range
// queries failing on the fault mix above. It records every range query's
// outcome in call order, so the test mirrors the degraded mode's
// bookkeeping from what the Framework was handed. Lookups by ID pass
// through; the replay makes none.
type failingBackend struct {
	fetch.StoreBackend
	rng                 *stats.RNG
	executed, submitted []outcome
}

func newFailingBackend(st *store.Store, seed uint64) *failingBackend {
	return &failingBackend{StoreBackend: fetch.StoreBackend{Store: st}, rng: stats.NewRNG(seed)}
}

func (b *failingBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	outage := (len(b.executed)+1)%chaosOutageEvery == 0
	return b.answer(&b.executed, outage, func() ([]*job.Job, error) { return b.StoreBackend.ExecutedBetween(ctx, start, end) })
}

func (b *failingBackend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	return b.answer(&b.submitted, false, func() ([]*job.Job, error) { return b.StoreBackend.SubmittedBetween(ctx, start, end) })
}

// answer draws one call's fate, runs query unless the call fails, and
// appends what the caller gets to log.
func (b *failingBackend) answer(log *[]outcome, outage bool, query func() ([]*job.Job, error)) ([]*job.Job, error) {
	jobs, err := []*job.Job(nil), errStorageDown
	if b.rng.Float64() >= chaosFailRate && !outage {
		jobs, err = query()
	}
	*log = append(*log, outcome{failed: err != nil, jobs: len(jobs)})
	return jobs, err
}

var chaosParams = online.Params{Alpha: 15, Beta: 1}

func chaosPeriod() (start, end time.Time) {
	return time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC), time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC)
}

// chaosFramework deploys a KNN Framework over fb, persisting into
// modelDir.
func chaosFramework(t *testing.T, fb *failingBackend, modelDir string) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Model, cfg.Params, cfg.ModelDir = core.ModelKNN, chaosParams, modelDir
	fw, err := core.New(cfg, fb)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// expectation mirrors the degraded mode's bookkeeping over the recorded
// logical outcomes. The vector fit itself never fails in this suite (KNN
// on a labeled window), so a trigger retrains exactly when its executed
// fetch succeeded with a non-empty window.
type expectation struct {
	trainings, skipped, failedFetches, unserved, stale, classified int
	maxStale                                                       time.Duration
	lastTrainEnd                                                   time.Time
}

// expect walks the schedule; restoredAt is the training instant of the
// model the framework started with (zero = none).
func expect(triggers []online.Trigger, executed, submitted []outcome, restoredAt time.Time) expectation {
	trained := !restoredAt.IsZero()
	s := expectation{lastTrainEnd: restoredAt}
	for i, tr := range triggers {
		switch {
		case executed[i].failed:
			s.failedFetches++
			s.skipped++
		case executed[i].jobs == 0:
			s.skipped++
		default:
			trained = true
			s.lastTrainEnd = tr.TrainEnd
			s.trainings++
		}
		sub := submitted[i]
		if sub.failed {
			s.failedFetches++
			s.unserved++
			continue
		}
		if sub.jobs == 0 {
			continue
		}
		if !trained {
			s.unserved++
			continue
		}
		if age := tr.TrainEnd.Sub(s.lastTrainEnd); age > 0 {
			s.stale++
			s.maxStale = max(s.maxStale, age)
		}
		s.classified += sub.jobs
	}
	return s
}

// replayAgainstSchedule replays [start, end) and checks the timeline's
// account, and the instant of the model left serving, against what the
// recorded outcomes of exactly that period's fetches imply.
func replayAgainstSchedule(t *testing.T, fw *core.Framework, fb *failingBackend, start, end, restoredAt time.Time) Summary {
	t.Helper()
	e0, s0 := len(fb.executed), len(fb.submitted)
	tl, err := Over(fw).Run(context.Background(), start, end)
	if err != nil {
		t.Fatalf("chaos replay aborted: %v", err)
	}
	triggers, err := online.Schedule(chaosParams, start, end)
	if err != nil {
		t.Fatal(err)
	}
	executed, submitted := fb.executed[e0:], fb.submitted[s0:]
	if len(executed) != len(triggers) || len(submitted) != len(triggers) {
		t.Fatalf("recorded %d/%d fetches for %d triggers", len(executed), len(submitted), len(triggers))
	}
	got, want := tl.Summary(), expect(triggers, executed, submitted, restoredAt)
	if got.Trainings != want.trainings || got.SkippedTrainings != want.skipped {
		t.Errorf("trainings = %d/%d skipped, schedule says %d/%d",
			got.Trainings, got.SkippedTrainings, want.trainings, want.skipped)
	}
	if got.FailedFetches != want.failedFetches {
		t.Errorf("failed fetches = %d, schedule says %d", got.FailedFetches, want.failedFetches)
	}
	if got.UnservedWindows != want.unserved {
		t.Errorf("unserved windows = %d, schedule says %d", got.UnservedWindows, want.unserved)
	}
	if got.StaleWindows != want.stale || got.MaxStaleness != want.maxStale {
		t.Errorf("stale = %d max %v, schedule says %d max %v",
			got.StaleWindows, got.MaxStaleness, want.stale, want.maxStale)
	}
	if got.Classified != want.classified {
		t.Errorf("classified = %d, schedule says %d", got.Classified, want.classified)
	}
	if _, _, at := fw.ModelInfo(); !at.Equal(want.lastTrainEnd) {
		t.Errorf("serving model trained at %v, schedule says %v", at, want.lastTrainEnd)
	}
	if got.FallbackWindows != 0 {
		t.Errorf("%d windows served by the lookup net; no fit fails in this suite", got.FallbackWindows)
	}
	return got
}

// degraded fails t unless the replays hurt — retrains skipped, windows
// served stale, fetches failed — and still classified jobs.
func degraded(t *testing.T, runs ...Summary) {
	t.Helper()
	var sum Summary
	for _, r := range runs {
		sum.SkippedTrainings += r.SkippedTrainings
		sum.StaleWindows += r.StaleWindows
		sum.FailedFetches += r.FailedFetches
		sum.Trainings += r.Trainings
		sum.Classified += r.Classified
	}
	if sum.SkippedTrainings == 0 || sum.StaleWindows == 0 || sum.FailedFetches == 0 {
		t.Errorf("skipped %d retrains, %d stale windows, %d failed fetches; the suite did not exercise degradation",
			sum.SkippedTrainings, sum.StaleWindows, sum.FailedFetches)
	}
	if sum.Trainings == 0 || sum.Classified == 0 {
		t.Fatalf("nothing served: %d trainings, %d classified", sum.Trainings, sum.Classified)
	}
}

func TestChaosReplayDegradedAccounting(t *testing.T) {
	fb := newFailingBackend(replayStore(t, 60), 42)
	start, end := chaosPeriod()
	res := replayAgainstSchedule(t, chaosFramework(t, fb, ""), fb, start, end, time.Time{})
	degraded(t, res)
	// Degraded serving must not degrade quality on this separable trace:
	// stale models answer exactly like fresh ones.
	if res.F1 != 1 {
		t.Errorf("F1 = %g under chaos, want 1", res.F1)
	}
}

func TestChaosCrashRecoveryMidReplay(t *testing.T) {
	fb := newFailingBackend(replayStore(t, 60), 7)
	dir := t.TempDir()
	start, end := chaosPeriod()
	mid := start.AddDate(0, 0, 7)

	// First half of the replay; the Framework checkpoints its model into
	// the registry after each retrain.
	fw1 := chaosFramework(t, fb, dir)
	res1 := replayAgainstSchedule(t, fw1, fb, start, mid, time.Time{})
	if res1.Trainings == 0 {
		t.Fatal("first half never trained; cannot checkpoint")
	}
	_, version, trainedAt := fw1.ModelInfo()
	// A live deployment writes a version at its training instant; the
	// replay's clock is virtual, so stamp the file with it.
	file := filepath.Join(dir, "knn-v"+strconv.Itoa(version)+".model")
	if err := os.Chtimes(file, trainedAt, trainedAt); err != nil {
		t.Fatal(err)
	}

	// "Crash": everything in memory is lost. A fresh Framework on the
	// same ModelDir restores the newest version and the replay resumes
	// where it stopped, against the same still-failing storage.
	fw2 := chaosFramework(t, fb, dir)
	if rep, err := fw2.LoadLatest(); err != nil || rep.Version != version {
		t.Fatalf("restore = %+v, %v; want version %d", rep, err, version)
	}
	s0 := len(fb.submitted)
	res2 := replayAgainstSchedule(t, fw2, fb, mid, end, trainedAt)
	degraded(t, res1, res2)

	// A restored model means every inference window whose submitted
	// fetch succeeded is served — stale where retrains were lost — so
	// the only unserved windows are submitted-fetch failures.
	subFailures := 0
	for _, sub := range fb.submitted[s0:] {
		if sub.failed {
			subFailures++
		}
	}
	if res2.UnservedWindows != subFailures {
		t.Errorf("unserved = %d, want only submitted-fetch failures (%d)", res2.UnservedWindows, subFailures)
	}
	if res1.F1 != 1 || res2.F1 != 1 {
		t.Errorf("F1 = %g / %g across the crash, want 1 / 1", res1.F1, res2.F1)
	}
}
