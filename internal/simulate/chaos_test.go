package simulate

// Chaos suite: replays a deployed Framework against a jobs data storage
// with injected faults (30% transient rate plus periodic permanent
// outages) behind the resilient fetch layer, and checks that the served
// degraded mode — a failed Training Workflow keeps the published model,
// a window with nothing to answer it goes unserved — shows in the
// timeline exactly as the fault schedule says. Run via `make chaos`
// (go test -race -run '^TestChaos').

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/fetch/chaos"
	"mcbound/internal/job"
	"mcbound/internal/online"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
)

// outcome is the logical result of one fetch as the Framework saw it,
// i.e. after the retry/breaker layer resolved the injected faults
// underneath.
type outcome struct {
	failed bool
	jobs   int
}

// recordingBackend sits ABOVE the resilient layer and captures the
// per-query outcomes in call order, so the test can mirror the degraded
// mode's bookkeeping without re-deriving the retry algebra.
type recordingBackend struct {
	inner     fetch.Backend
	executed  []outcome
	submitted []outcome
}

func (b *recordingBackend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	return b.inner.JobByID(ctx, id)
}

func (b *recordingBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	jobs, err := b.inner.ExecutedBetween(ctx, start, end)
	b.executed = append(b.executed, outcome{failed: err != nil, jobs: len(jobs)})
	return jobs, err
}

func (b *recordingBackend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	jobs, err := b.inner.SubmittedBetween(ctx, start, end)
	b.submitted = append(b.submitted, outcome{failed: err != nil, jobs: len(jobs)})
	return jobs, err
}

// chaosChain assembles store → chaos → resilient with the suite's fault
// mix: 30% transient faults on every method, plus a permanent outage on
// every 4th ExecutedBetween call (counted at the chaos layer, so retry
// attempts advance the schedule too). The breaker threshold is set far
// above the fault run lengths so admission never perturbs the
// accounting; the breaker is exercised on its own in resilience tests.
func chaosChain(st *store.Store, seed uint64) (*chaos.Backend, *fetch.ResilientBackend) {
	cb := chaos.New(fetch.StoreBackend{Store: st}, seed)
	cb.SetAll(chaos.Profile{TransientRate: 0.3})
	cb.Set(chaos.MethodExecuted, chaos.Profile{TransientRate: 0.3, PermanentEveryN: 4})
	rb := fetch.NewResilientBackend(cb, fetch.ResilienceConfig{
		Retry: resilience.Policy{
			MaxAttempts: 6,
			BaseDelay:   time.Microsecond,
			MaxDelay:    10 * time.Microsecond,
			Jitter:      0.2,
		},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1000, Cooldown: time.Millisecond},
		Seed:    seed,
	})
	return cb, rb
}

var chaosParams = online.Params{Alpha: 15, Beta: 1}

func chaosPeriod() (start, end time.Time) {
	return time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC), time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC)
}

// recordedFramework deploys a KNN Framework over rb with the outcome
// recorder in between, persisting into modelDir.
func recordedFramework(t *testing.T, rb fetch.Backend, modelDir string) (*core.Framework, *recordingBackend) {
	t.Helper()
	rec := &recordingBackend{inner: rb}
	cfg := core.DefaultConfig()
	cfg.Model, cfg.Params, cfg.ModelDir = core.ModelKNN, chaosParams, modelDir
	fw, err := core.New(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	return fw, rec
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
func replayAgainstSchedule(t *testing.T, fw *core.Framework, rec *recordingBackend, start, end, restoredAt time.Time) Summary {
	t.Helper()
	tl, err := Over(fw).Run(context.Background(), start, end)
	if err != nil {
		t.Fatalf("chaos replay aborted: %v", err)
	}
	triggers, err := online.Schedule(chaosParams, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.executed) != len(triggers) || len(rec.submitted) != len(triggers) {
		t.Fatalf("recorded %d/%d fetches for %d triggers", len(rec.executed), len(rec.submitted), len(triggers))
	}
	got, want := tl.Summary(), expect(triggers, rec.executed, rec.submitted, restoredAt)
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

func TestChaosReplayDegradedAccounting(t *testing.T) {
	cb, rb := chaosChain(replayStore(t, 60), 42)
	fw, rec := recordedFramework(t, rb, "")
	start, end := chaosPeriod()
	res := replayAgainstSchedule(t, fw, rec, start, end, time.Time{})

	// The schedule must actually have hurt: injected faults at the chaos
	// layer and at least one logical failure surviving the retry layer
	// (the permanent outages guarantee it).
	exec := cb.Counters(chaos.MethodExecuted)
	if exec.Transient == 0 || exec.Permanent == 0 {
		t.Errorf("chaos injected nothing: %+v", exec)
	}
	if res.SkippedTrainings == 0 || res.StaleWindows == 0 {
		t.Errorf("skipped %d retrains, %d stale windows; the suite did not exercise degradation",
			res.SkippedTrainings, res.StaleWindows)
	}
	if res.Trainings == 0 || res.Classified == 0 {
		t.Fatalf("nothing served: %+v", res)
	}
	// Degraded serving must not degrade quality on this separable trace:
	// stale models answer exactly like fresh ones.
	if res.F1 != 1 {
		t.Errorf("F1 = %g under chaos, want 1", res.F1)
	}
}

func TestChaosCrashRecoveryMidReplay(t *testing.T) {
	_, rb := chaosChain(replayStore(t, 60), 7)
	dir := t.TempDir()
	start, end := chaosPeriod()
	mid := start.AddDate(0, 0, 7)

	// First half of the replay; the Framework checkpoints its model into
	// the registry after each retrain.
	fw1, rec1 := recordedFramework(t, rb, dir)
	res1 := replayAgainstSchedule(t, fw1, rec1, start, mid, time.Time{})
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
	// where it stopped, against the same still-faulty storage.
	fw2, rec2 := recordedFramework(t, rb, dir)
	if rep, err := fw2.LoadLatest(); err != nil || rep.Version != version {
		t.Fatalf("restore = %+v, %v; want version %d", rep, err, version)
	}
	res2 := replayAgainstSchedule(t, fw2, rec2, mid, end, trainedAt)

	// A restored model means every inference window whose submitted
	// fetch succeeded is served — stale where retrains were lost — so
	// the only unserved windows are submitted-fetch failures.
	if res2.Classified == 0 {
		t.Fatal("restored model served nothing")
	}
	subFailures := 0
	for _, sub := range rec2.submitted {
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
