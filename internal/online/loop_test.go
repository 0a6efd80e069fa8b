package online_test

// The online algorithm end to end, on its one implementation: a deployed
// core.Framework walked through a period by simulate.Replay. These tests
// were written against online.Runner, the evaluation's private copy of
// the two workflows; they keep their names and check the same behaviour
// — θ-subsampling, the lookup baseline, skipped retrains, degraded and
// stale serving — on the code the server runs.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/online"
	"mcbound/internal/simulate"
	"mcbound/internal/store"
)

// handTrace builds a deterministic trace: app "memapp" is always
// memory-bound, app "compapp" always compute-bound, 8 jobs of each per
// day from January 1st through February 29th, 2024.
func handTrace(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	add := func(day int, name string, perfGF, bwGB float64) {
		submit := start.AddDate(0, 0, day).Add(time.Duration(seq%24) * time.Hour / 24)
		durSec := 1800.0
		nodes := 2
		flops := perfGF * 1e9 * durSec * float64(nodes)
		bytes := bwGB * 1e9 * durSec * float64(nodes)
		err := st.Insert(&job.Job{
			ID:             fmt.Sprintf("h%06d", seq),
			User:           "u0001",
			Name:           name,
			Environment:    "gcc/12.2",
			CoresRequested: 96,
			NodesRequested: nodes,
			NodesAllocated: nodes,
			FreqRequested:  job.FreqNormal,
			SubmitTime:     submit,
			StartTime:      submit.Add(time.Minute),
			EndTime:        submit.Add(time.Minute + 30*time.Minute),
			Counters: job.PerfCounters{
				Perf2: flops,
				Perf4: bytes * job.CoresPerCMG / job.CacheLineBytes,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for day := 0; day < 60; day++ {
		for i := 0; i < 8; i++ {
			// op = 1 (memory-bound) and op = 40 (compute-bound).
			add(day, "memapp", 50, 50)
			add(day, "compapp", 400, 10)
		}
	}
	return st
}

func testPeriod() (time.Time, time.Time) {
	return time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC)
}

// deploy builds a Framework over the trace; edit adjusts the default
// configuration.
func deploy(t *testing.T, st *store.Store, edit func(*core.Config)) *core.Framework {
	t.Helper()
	cfg := core.DefaultConfig()
	edit(&cfg)
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func replay(t *testing.T, fw *core.Framework, start, end time.Time) simulate.Summary {
	t.Helper()
	tl, err := simulate.Over(fw).Run(context.Background(), start, end)
	if err != nil {
		t.Fatalf("replay aborted: %v", err)
	}
	return tl.Summary()
}

func TestRunnerKNNEndToEnd(t *testing.T) {
	fw := deploy(t, handTrace(t), func(c *core.Config) {
		c.Model, c.Params = core.ModelKNN, online.Params{Alpha: 15, Beta: 1}
	})
	start, end := testPeriod()
	res := replay(t, fw, start, end)
	if res.F1 != 1 {
		t.Errorf("F1 = %g on perfectly separable apps, want 1", res.F1)
	}
	if res.Trainings != 14 {
		t.Errorf("retrainings = %d, want 14", res.Trainings)
	}
	if res.Classified != 14*16 {
		t.Errorf("test jobs = %d, want %d", res.Classified, 14*16)
	}
	if res.MeanTrainedOn != 15*16 {
		t.Errorf("avg train size = %g, want %d", res.MeanTrainedOn, 15*16)
	}
	if res.MeanClassifyPerJob <= 0 || res.MeanTrainTime <= 0 {
		t.Errorf("timings not measured: %+v", res)
	}
	if res.StaleWindows != 0 || res.FallbackWindows != 0 || res.SkippedTrainings != 0 {
		t.Errorf("fault-free replay accounts degradation: %+v", res)
	}
	if name, _, _ := fw.ModelInfo(); name != "knn" {
		t.Errorf("model name = %s", name)
	}
}

func TestRunnerBaselineEndToEnd(t *testing.T) {
	fw := deploy(t, handTrace(t), func(c *core.Config) {
		c.Model, c.Params = core.ModelBaseline, online.Params{Alpha: 15, Beta: 7}
	})
	start, end := testPeriod()
	res := replay(t, fw, start, end)
	if res.F1 != 1 {
		t.Errorf("baseline F1 = %g, want 1 (names are fully informative)", res.F1)
	}
	if res.Trainings != 2 {
		t.Errorf("retrainings = %d, want 2 (14 days / β=7)", res.Trainings)
	}
	// The lookup table is this deployment's model, not a net under one.
	if res.FallbackWindows != 0 || fw.Degraded() || fw.DegradedPredictions() != 0 || !fw.Trained() {
		t.Errorf("baseline deployment reads as degraded: %d fallback windows, degraded=%v (%d), trained=%v",
			res.FallbackWindows, fw.Degraded(), fw.DegradedPredictions(), fw.Trained())
	}
	if name, _, _ := fw.ModelInfo(); name != "baseline" {
		t.Errorf("model name = %s", name)
	}
}

func TestRunnerThetaSubsampling(t *testing.T) {
	st := handTrace(t)
	fw := deploy(t, st, func(c *core.Config) {
		c.Model = core.ModelKNN
		c.Params = online.Params{Alpha: 15, Beta: 1, Theta: 32, ThetaMode: online.ThetaRandom, Seed: 9}
	})
	start, end := testPeriod()
	res := replay(t, fw, start, end)
	if res.MeanTrainedOn != 32 {
		t.Errorf("θ-subsampled train size = %g, want 32", res.MeanTrainedOn)
	}
	if res.F1 < 0.9 {
		t.Errorf("F1 = %g (32 samples of a separable problem should be plenty)", res.F1)
	}

	// Latest keeps the θ newest jobs by end time. "turnapp" ran
	// compute-bound for the 13 oldest days of a 15-day window and
	// memory-bound for the 2 newest: the whole window's majority says
	// compute-bound, its 4 newest rows say memory-bound.
	turn := end.AddDate(0, 0, -2)
	for day := end.AddDate(0, 0, -15); day.Before(end); day = day.AddDate(0, 0, 1) {
		for i := 0; i < 2; i++ {
			perfGF, bwGB := 400.0, 10.0
			if !day.Before(turn) {
				perfGF, bwGB = 50, 50
			}
			submit := day.Add(23*time.Hour + time.Duration(i)*time.Minute)
			err := st.Insert(&job.Job{
				ID: fmt.Sprintf("turn-%s-%d", day.Format("0102"), i), User: "u0002", Name: "turnapp",
				Environment: "gcc/12.2", CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1,
				FreqRequested: job.FreqNormal, SubmitTime: submit,
				StartTime: submit.Add(time.Minute), EndTime: submit.Add(11 * time.Minute),
				Counters: job.PerfCounters{
					Perf2: perfGF * 1e9 * 600,
					Perf4: bwGB * 1e9 * 600 * job.CoresPerCMG / job.CacheLineBytes,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := []*job.Job{{ID: "probe", Name: "turnapp", CoresRequested: 48}}
	for _, tc := range []struct {
		params online.Params
		fitted int
		want   job.Label
	}{
		{online.Params{Alpha: 15, Beta: 1}, 15 * (16 + 2), job.ComputeBound},
		{online.Params{Alpha: 15, Beta: 1, Theta: 4, ThetaMode: online.ThetaLatest}, 4, job.MemoryBound},
	} {
		fw := deploy(t, st, func(c *core.Config) { c.Model, c.Params = core.ModelBaseline, tc.params })
		rep, err := fw.Train(context.Background(), end)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FittedJobs != tc.fitted || rep.LabeledJobs != 15*(16+2) {
			t.Errorf("%v fitted %d of %d labeled rows, want %d", tc.params, rep.FittedJobs, rep.LabeledJobs, tc.fitted)
		}
		preds, err := fw.ClassifyJobs(context.Background(), probe)
		if err != nil {
			t.Fatal(err)
		}
		if preds[0].Label != tc.want {
			t.Errorf("%v: turnapp classified %v, want %v", tc.params, preds[0].Label, tc.want)
		}
	}
}

func TestRunnerEmptyWindowSkipsRetrain(t *testing.T) {
	// A training window before the trace begins does not abort the
	// replay: the trigger is skipped and counted, and the run completes.
	fw := deploy(t, handTrace(t), func(c *core.Config) {
		c.Model, c.Params = core.ModelKNN, online.Params{Alpha: 5, Beta: 1}
	})
	early := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	res := replay(t, fw, early, early.AddDate(0, 0, 3))
	if res.Trainings != 0 || res.SkippedTrainings != 3 {
		t.Errorf("retrainings = %d, skipped = %d, want 0 and 3", res.Trainings, res.SkippedTrainings)
	}
	if res.Classified != 0 || res.UnservedWindows != 0 || res.FailedFetches != 0 {
		t.Errorf("test jobs = %d, unserved = %d, failed fetches = %d on an empty period",
			res.Classified, res.UnservedWindows, res.FailedFetches)
	}

	// And it keeps the model: an empty window after a good one leaves
	// the published snapshot where it was.
	start, _ := testPeriod()
	if _, err := fw.Train(context.Background(), start); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(context.Background(), early); err == nil {
		t.Fatal("training on an empty window succeeded")
	}
	if _, _, at := fw.ModelInfo(); !fw.Trained() || !at.Equal(start) {
		t.Errorf("empty window moved the served model: trained=%v at %v, want %v", fw.Trained(), at, start)
	}
	if preds, err := fw.ClassifySubmitted(context.Background(), start, start.AddDate(0, 0, 1)); err != nil || len(preds) != 16 {
		t.Errorf("kept model served %d predictions, %v", len(preds), err)
	}
}

// failingClassifier always refuses to fit, driving the fallback path.
type failingClassifier struct{}

func (failingClassifier) Train([][]float32, []job.Label) error { return fmt.Errorf("fit refused") }
func (failingClassifier) Predict([][]float32) ([]job.Label, error) {
	return nil, fmt.Errorf("not trained")
}
func (failingClassifier) Name() string { return "failing" }

func TestRunnerFallbackBaselineWhenModelNeverFits(t *testing.T) {
	// Every fit fails, but the windows are labeled: inference must be
	// served, flagged degraded, by the (job name, #cores) lookup net.
	fw := deploy(t, handTrace(t), func(c *core.Config) {
		c.Params = online.Params{Alpha: 15, Beta: 7}
		c.ModelFactory = func() (ml.Classifier, error) { return failingClassifier{}, nil }
	})
	start, end := testPeriod()
	tl, err := simulate.Over(fw).Run(context.Background(), start, end)
	if err != nil {
		t.Fatalf("failing fits aborted the replay: %v", err)
	}
	res := tl.Summary()
	if res.Trainings != 0 || res.SkippedTrainings != 2 {
		t.Errorf("retrainings = %d, skipped = %d, want 0 and 2", res.Trainings, res.SkippedTrainings)
	}
	if res.Classified == 0 || res.FallbackWindows != res.Inferences || fw.DegradedPredictions() != int64(res.Classified) {
		t.Errorf("fallback served %d of %d windows, %d of %d test jobs; want all",
			res.FallbackWindows, res.Inferences, fw.DegradedPredictions(), res.Classified)
	}
	if fw.Trained() || !fw.Degraded() || !fw.Ready() {
		t.Errorf("trained=%v degraded=%v ready=%v, want a ready, degraded, untrained framework",
			fw.Trained(), fw.Degraded(), fw.Ready())
	}
	preds, err := fw.ClassifySubmitted(context.Background(), start, start.AddDate(0, 0, 1))
	if err != nil || len(preds) == 0 || !preds[0].Degraded {
		t.Errorf("fallback predictions not flagged degraded: %+v, %v", preds, err)
	}
	if res.F1 != 1 {
		t.Errorf("fallback F1 = %g on name-separable apps, want 1", res.F1)
	}
	if res.UnservedWindows != 0 || res.FailedFetches != 0 {
		t.Errorf("unserved windows = %d, failed fetches = %d with a working fallback", res.UnservedWindows, res.FailedFetches)
	}
	for _, e := range tl.Events {
		if e.Kind == simulate.EventTrain && (e.Err == nil || e.FetchFailed) {
			t.Errorf("train event %v: err %v, fetch failed %v; want the refused fit as its cause", e.Time, e.Err, e.FetchFailed)
		}
	}
}

// frozenKNN restores and serves like the KNN it wraps but refuses every
// new fit — the shape of a deployment where retraining is permanently
// broken after a restart.
type frozenKNN struct{ *knn.Classifier }

func (frozenKNN) Train([][]float32, []job.Label) error { return fmt.Errorf("train disabled") }

func TestRunnerPretrainedServesStale(t *testing.T) {
	// A model restored from the registry (crash recovery) keeps serving
	// when every subsequent retrain fails: stale beats dead.
	st, dir := handTrace(t), t.TempDir()
	start, end := testPeriod()
	mid := start.AddDate(0, 0, 7)
	first := deploy(t, st, func(c *core.Config) {
		c.Model, c.Params, c.ModelDir = core.ModelKNN, online.Params{Alpha: 15, Beta: 7}, dir
	})
	if warm := replay(t, first, start, mid); warm.Trainings != 1 {
		t.Fatalf("warmup run = %+v", warm)
	}
	// A live deployment writes the file at the training instant; the
	// replay's clock is virtual, so stamp the file with it.
	if err := os.Chtimes(filepath.Join(dir, "knn-v1.model"), start, start); err != nil {
		t.Fatal(err)
	}

	restarted := deploy(t, st, func(c *core.Config) {
		c.Params, c.ModelDir = online.Params{Alpha: 15, Beta: 7}, dir
		c.ModelFactory = func() (ml.Classifier, error) { return frozenKNN{knn.New(knn.DefaultConfig())}, nil }
	})
	if _, err := restarted.LoadLatest(); err != nil {
		t.Fatal(err)
	}
	res := replay(t, restarted, mid, end)
	if res.Trainings != 0 || res.SkippedTrainings != 1 {
		t.Errorf("retrainings = %d, skipped = %d, want 0 and 1", res.Trainings, res.SkippedTrainings)
	}
	if res.Classified == 0 || res.FallbackWindows != 0 || restarted.DegradedPredictions() != 0 {
		t.Errorf("test jobs = %d, fallback windows = %d; want stale-model serving", res.Classified, res.FallbackWindows)
	}
	if res.StaleWindows != 1 || res.MaxStaleness != 7*24*time.Hour {
		t.Errorf("stale windows = %d, max staleness = %v, want 1 and 168h", res.StaleWindows, res.MaxStaleness)
	}
	if res.F1 != 1 {
		t.Errorf("stale-model F1 = %g, want 1", res.F1)
	}
}
