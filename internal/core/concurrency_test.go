package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/stats"
)

// raceModel is a Classifier instrumented to detect hot-swap invariant
// violations: predicting on an instance whose Train has not completed
// means a half-built model was published, and a second Train on the
// same instance means the framework reused an instance across triggers.
type raceModel struct {
	trained atomic.Bool
	fitErr  atomic.Pointer[string]
}

func (m *raceModel) Train(x [][]float32, y []job.Label) error {
	if m.trained.Load() {
		msg := "raceModel trained twice: instance reused across triggers"
		m.fitErr.Store(&msg)
	}
	runtime.Gosched() // widen the publish window
	m.trained.Store(true)
	return nil
}

func (m *raceModel) Predict(x [][]float32) ([]job.Label, error) {
	if !m.trained.Load() {
		return nil, errors.New("raceModel: Predict before Train completed (torn swap)")
	}
	out := make([]job.Label, len(x))
	for i := range out {
		out[i] = job.MemoryBound
	}
	return out, nil
}

func (m *raceModel) Name() string { return "race" }

// persist.Model round-trip so the registry can version raceModel swaps.
func (m *raceModel) MarshalBinary() ([]byte, error) { return []byte{1}, nil }
func (m *raceModel) UnmarshalBinary([]byte) error   { m.trained.Store(true); return nil }
func (m *raceModel) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write([]byte{1})
	return int64(n), err
}

// gatedModel blocks inside Train until released, simulating an
// arbitrarily slow model fit.
type gatedModel struct {
	raceModel
	startedOnce sync.Once
	started     chan struct{}
	release     chan struct{}
}

func newGatedModel() *gatedModel {
	return &gatedModel{started: make(chan struct{}), release: make(chan struct{})}
}

func (m *gatedModel) Train(x [][]float32, y []job.Label) error {
	m.startedOnce.Do(func() { close(m.started) })
	<-m.release
	return m.raceModel.Train(x, y)
}

// TestConcurrentTrainClassifyStress hammers Classify from N goroutines
// while M goroutines loop Train on a live Framework. Run under -race
// (make check does). Invariants: no classify error other than
// ErrNotTrained before the first swap completes, every batch served by
// one model version, versions never move backwards for an observer, and
// no prediction ever reaches a model whose fit has not finished.
func TestConcurrentTrainClassifyStress(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	cfg.ModelDir = t.TempDir()
	models := make([]*raceModel, 0, 64)
	var modelsMu sync.Mutex
	cfg.ModelFactory = func() (ml.Classifier, error) {
		m := &raceModel{}
		modelsMu.Lock()
		models = append(models, m)
		modelsMu.Unlock()
		return m, nil
	}
	fw := newFramework(t, cfg, st)
	trainAt := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)

	jobs := make([]*job.Job, 0, 4)
	for _, id := range []string{"c00000", "c00001", "c00002", "c00003"} {
		j, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	const (
		trainers      = 3
		trainsPer     = 15
		classifiers   = 8
		classifiesPer = 300
	)
	ctx := context.Background()
	var (
		wg          sync.WaitGroup
		start       = make(chan struct{})
		swapDone    atomic.Bool // true once any Train returned successfully
		trainErrs   atomic.Int64
		notTrainedN atomic.Int64
	)
	for m := 0; m < trainers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < trainsPer; i++ {
				if _, err := fw.Train(ctx, trainAt); err != nil {
					trainErrs.Add(1)
					t.Errorf("train: %v", err)
					return
				}
				swapDone.Store(true)
			}
		}()
	}
	for n := 0; n < classifiers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lastVersion := -1
			for i := 0; i < classifiesPer; i++ {
				preds, err := fw.ClassifyJobs(ctx, jobs)
				if err != nil {
					if errors.Is(err, ErrNotTrained) && !swapDone.Load() {
						notTrainedN.Add(1)
						runtime.Gosched()
						continue
					}
					t.Errorf("classify: %v", err)
					return
				}
				v := preds[0].ModelVersion
				for _, p := range preds {
					if p.ModelVersion != v {
						t.Errorf("torn batch: versions %d and %d in one Classify", v, p.ModelVersion)
						return
					}
				}
				if v < lastVersion {
					t.Errorf("model version went backwards: %d after %d", v, lastVersion)
					return
				}
				lastVersion = v
				name, mv, at := fw.ModelInfo()
				if name == "" || mv < v || (mv > 0 && at.IsZero()) {
					t.Errorf("inconsistent ModelInfo: %q v%d at %v (observer at v%d)", name, mv, at, v)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	if trainErrs.Load() > 0 {
		t.Fatalf("%d train errors", trainErrs.Load())
	}
	modelsMu.Lock()
	defer modelsMu.Unlock()
	for i, m := range models {
		if msg := m.fitErr.Load(); msg != nil {
			t.Errorf("model %d: %s", i, *msg)
		}
	}
	// +1: New builds one throwaway instance to validate the config.
	if len(models) > trainers*trainsPer+1 {
		t.Errorf("built %d models for %d triggers: single-flight leaked", len(models), trainers*trainsPer)
	}
}

// TestConcurrentIndexedModelStress is the indexed-model variant of the
// hot-swap stress: real KNN classifiers carrying an IVF index are
// trained and swapped while classifiers predict through the index and
// another goroutine flips the live nprobe knob via SetIndexOptions. Run
// under -race (make check does). Invariants: predictions are always a
// definite class from a consistent snapshot, versions never move
// backwards, and the final served model actually carries an index.
func TestConcurrentIndexedModelStress(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	cfg.ModelDir = t.TempDir()
	cfg.ModelFactory = func() (ml.Classifier, error) {
		return knn.New(knn.Config{K: 3, P: 2, Index: knn.IndexConfig{
			Mode:      knn.IndexOn,
			NClusters: 2,
			NProbe:    1,
			Seed:      42,
		}}), nil
	}
	fw := newFramework(t, cfg, st)
	ctx := context.Background()
	trainAt := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	if _, err := fw.Train(ctx, trainAt); err != nil {
		t.Fatal(err)
	}
	if !fw.IndexInfo().Enabled {
		t.Fatal("initial model carries no index")
	}

	jobs := make([]*job.Job, 0, 4)
	for _, id := range []string{"c00000", "c00001", "c00002", "c00003"} {
		j, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	const (
		trainers      = 2
		trainsPer     = 10
		classifiers   = 6
		classifiesPer = 200
		tuners        = 2
		tunesPer      = 100
	)
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	for m := 0; m < trainers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < trainsPer; i++ {
				if _, err := fw.Train(ctx, trainAt); err != nil {
					t.Errorf("train: %v", err)
					return
				}
			}
		}()
	}
	for n := 0; n < tuners; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			<-start
			for i := 0; i < tunesPer; i++ {
				if err := fw.SetIndexOptions("", 1+(i+n)%4); err != nil {
					t.Errorf("set index options: %v", err)
					return
				}
			}
		}(n)
	}
	for n := 0; n < classifiers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lastVersion := -1
			for i := 0; i < classifiesPer; i++ {
				preds, err := fw.ClassifyJobs(ctx, jobs)
				if err != nil {
					t.Errorf("classify: %v", err)
					return
				}
				v := preds[0].ModelVersion
				for _, p := range preds {
					if p.ModelVersion != v {
						t.Errorf("torn batch: versions %d and %d in one Classify", v, p.ModelVersion)
						return
					}
					if p.Label != job.MemoryBound && p.Label != job.ComputeBound {
						t.Errorf("indefinite prediction %v from indexed model", p.Label)
						return
					}
				}
				if v < lastVersion {
					t.Errorf("model version went backwards: %d after %d", v, lastVersion)
					return
				}
				lastVersion = v
				// The info snapshot must always be internally consistent,
				// even mid-swap or mid-tune.
				if info := fw.IndexInfo(); info.Enabled {
					if info.Kind != "ivf" || info.Clusters < 1 || info.NProbe < 1 || info.NProbe > info.Clusters {
						t.Errorf("inconsistent IndexInfo: %+v", info)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	if !fw.IndexInfo().Enabled {
		t.Error("final served model carries no index")
	}
}

// TestClassifyNotBlockedByTrain asserts the acceptance criterion that a
// retrain no longer stalls the serving path: Classify latency while a
// Train is parked inside the model fit stays within 10× of idle latency
// (plus a small absolute floor against scheduler noise on loaded CI).
func TestClassifyNotBlockedByTrain(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	gate := newGatedModel()
	var calls atomic.Int64
	cfg.ModelFactory = func() (ml.Classifier, error) {
		// Call 1 = New's validation build, call 2 = the fast initial
		// train, call 3 = the gated retrain under measurement.
		if calls.Add(1) == 3 {
			return gate, nil
		}
		return &raceModel{}, nil
	}
	fw := newFramework(t, cfg, st)
	ctx := context.Background()
	trainAt := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	if _, err := fw.Train(ctx, trainAt); err != nil {
		t.Fatal(err)
	}
	j, err := st.Get("c00000")
	if err != nil {
		t.Fatal(err)
	}
	batch := []*job.Job{j}

	const samples = 60
	measure := func() time.Duration {
		lat := make([]time.Duration, samples)
		for i := range lat {
			t0 := time.Now()
			if _, err := fw.ClassifyJobs(ctx, batch); err != nil {
				t.Fatalf("classify: %v", err)
			}
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat[samples/2]
	}
	idle := measure()

	trainDone := make(chan error, 1)
	go func() {
		_, err := fw.Train(ctx, trainAt)
		trainDone <- err
	}()
	<-gate.started // Train is now parked inside the model fit
	if !fw.TrainingInFlight() {
		t.Error("TrainingInFlight false while the fit is running")
	}
	busy := measure()
	close(gate.release)
	if err := <-trainDone; err != nil {
		t.Fatalf("gated train: %v", err)
	}
	if fw.TrainingInFlight() {
		t.Error("TrainingInFlight true after the fit returned")
	}

	limit := 10*idle + 5*time.Millisecond
	if busy > limit {
		t.Errorf("classify median under retrain = %v, idle = %v: exceeds 10×+5ms bound", busy, idle)
	}
	t.Logf("classify median: idle=%v under-retrain=%v", idle, busy)
}

// TestTrainSingleFlightCoalesces asserts that a trigger arriving while a
// train is in flight shares the in-flight result instead of fitting a
// second model, and that a coalesced waiter honours its context.
func TestTrainSingleFlightCoalesces(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	gate := newGatedModel()
	var calls atomic.Int64
	cfg.ModelFactory = func() (ml.Classifier, error) {
		// Call 1 = New's validation build, call 2 = train A's gated fit.
		if calls.Add(1) == 2 {
			return gate, nil
		}
		return &raceModel{}, nil
	}
	fw := newFramework(t, cfg, st)
	ctx := context.Background()
	nowA := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	nowB := time.Date(2024, 1, 21, 0, 0, 0, 0, time.UTC)

	type result struct {
		rep *TrainReport
		err error
	}
	aCh := make(chan result, 1)
	go func() {
		rep, err := fw.Train(ctx, nowA)
		aCh <- result{rep, err}
	}()
	<-gate.started

	bCh := make(chan result, 1)
	go func() {
		rep, err := fw.Train(ctx, nowB)
		bCh <- result{rep, err}
	}()

	// A canceled waiter must abandon the coalesced wait promptly.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := fw.Train(canceled, nowB); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled coalesced wait returned %v", err)
	}

	select {
	case r := <-bCh:
		t.Fatalf("second trigger returned before the in-flight train finished: %+v, %v", r.rep, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate.release)
	a := <-aCh
	b := <-bCh
	if a.err != nil || b.err != nil {
		t.Fatalf("train errors: a=%v b=%v", a.err, b.err)
	}
	if a.rep.Coalesced {
		t.Error("originating trigger marked coalesced")
	}
	if !b.rep.Coalesced {
		t.Error("second trigger not marked coalesced")
	}
	if !b.rep.WindowEnd.Equal(a.rep.WindowEnd) {
		t.Errorf("coalesced report window end %v differs from in-flight %v", b.rep.WindowEnd, a.rep.WindowEnd)
	}
	if got := calls.Load(); got != 2 { // 1 at New (validation) + 1 for train A
		t.Errorf("model factory called %d times, want 2 (coalesced trigger built one)", got)
	}
	if fw.CoalescedTrains() < 2 {
		t.Errorf("CoalescedTrains = %d, want >= 2", fw.CoalescedTrains())
	}
}

// TestClassifyBatchParallelMatchesSerial pins order preservation: the
// deduplicated, fanned-out batch must produce exactly the per-job
// predictions of single-job calls, row for row.
func TestClassifyBatchParallelMatchesSerial(t *testing.T) {
	st := seedStore(t)
	fw := newFramework(t, DefaultConfig(), st)
	ctx := context.Background()
	if _, err := fw.Train(ctx, time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	all := st.All()
	batch, err := fw.ClassifyJobs(ctx, all)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range all {
		single, err := fw.ClassifyJobs(ctx, []*job.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].JobID != j.ID || batch[i].Label != single[0].Label {
			t.Fatalf("row %d: batch (%s,%v) vs single (%s,%v)",
				i, batch[i].JobID, batch[i].Label, single[0].JobID, single[0].Label)
		}
	}
}

// dupHeavyBatch interleaves runs of jobs that share a feature string
// under different IDs (the trace's batch submissions) with jobs no other
// row equals, so a batch exercises first-seen, repeated and unique rows
// in every order.
func dupHeavyBatch(n int) []*job.Job {
	rng := stats.NewRNG(11)
	apps := []string{"membound_app", "compbound_app", "membound_app2", "solver", "compbound"}
	jobs := make([]*job.Job, n)
	for i := range jobs {
		j := &job.Job{
			ID:             fmt.Sprintf("d%05d", i),
			User:           fmt.Sprintf("u%04d", rng.Intn(3)),
			Name:           apps[rng.Intn(len(apps))],
			Environment:    "gcc/12.2",
			CoresRequested: 48 * (1 + rng.Intn(2)),
			NodesRequested: 1,
			FreqRequested:  job.FreqNormal,
		}
		if rng.Intn(3) == 0 {
			j.Name = fmt.Sprintf("%s_run%d", j.Name, i) // unique row
		}
		jobs[i] = j
	}
	return jobs
}

// TestClassifyBatchDedupeMatchesSingles is the differential test of the
// distinct pass: classifying a duplicate-heavy batch must equal
// classifying each of its jobs alone — ID, label and model version, row
// for row — for both models and whatever the embedding cache holds
// (large enough never to evict, the default, disabled, and small enough
// to evict in the middle of the batch).
func TestClassifyBatchDedupeMatchesSingles(t *testing.T) {
	batch := dupHeavyBatch(700)
	ctx := context.Background()
	for _, kind := range []ModelKind{ModelKNN, ModelRF} {
		for _, capacity := range []int{1 << 20, encode.DefaultCacheCapacity, 0, 32} {
			t.Run(fmt.Sprintf("%s/cache=%d", kind, capacity), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Model = kind
				cfg.ModelDir = t.TempDir() // a non-zero ModelVersion to compare
				fw := newFramework(t, cfg, seedStore(t))
				fw.Encoder().SetCacheCapacity(capacity)
				if _, err := fw.Train(ctx, time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
					t.Fatal(err)
				}
				got, err := fw.ClassifyJobs(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(batch) {
					t.Fatalf("%d predictions for %d jobs", len(got), len(batch))
				}
				for i, j := range batch {
					single, err := fw.ClassifyJobs(ctx, []*job.Job{j})
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != single[0] || got[i].JobID != j.ID || got[i].ModelVersion == 0 {
						t.Fatalf("row %d: batch %+v vs single %+v", i, got[i], single[0])
					}
				}
			})
		}
	}
}

// TestClassifyBatchCanceledContext asserts a batch classify honours
// cancellation before doing the model's work.
func TestClassifyBatchCanceledContext(t *testing.T) {
	st := seedStore(t)
	fw := newFramework(t, DefaultConfig(), st)
	if _, err := fw.Train(context.Background(), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.ClassifyJobs(ctx, st.All()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled classify returned %v", err)
	}
}
