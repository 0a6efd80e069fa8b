package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/store"
)

// seedStore builds a deterministic two-app store covering January 2024.
func seedStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	add := func(day int, name string, perfGF, bwGB float64) {
		submit := start.AddDate(0, 0, day)
		durSec := 1800.0
		flops := perfGF * 1e9 * durSec
		bytes := bwGB * 1e9 * durSec
		err := st.Insert(&job.Job{
			ID:             fmt.Sprintf("c%05d", seq),
			User:           "u0001",
			Name:           name,
			Environment:    "gcc/12.2",
			CoresRequested: 48,
			NodesRequested: 1,
			NodesAllocated: 1,
			FreqRequested:  job.FreqNormal,
			SubmitTime:     submit,
			StartTime:      submit.Add(time.Minute),
			EndTime:        submit.Add(31 * time.Minute),
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
	for day := 0; day < 31; day++ {
		for i := 0; i < 6; i++ {
			add(day, "membound_app", 50, 50)  // op = 1
			add(day, "compbound_app", 300, 5) // op = 60
		}
	}
	return st
}

func newFramework(t testing.TB, cfg Config, st *store.Store) *Framework {
	t.Helper()
	fw, err := New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestTrainAndClassify(t *testing.T) {
	st := seedStore(t)
	fw := newFramework(t, DefaultConfig(), st)
	if fw.Trained() {
		t.Fatal("framework claims trained before Train")
	}
	trainAt := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	rep, err := fw.Train(context.Background(), trainAt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LabeledJobs == 0 || rep.SkippedJobs != 0 {
		t.Errorf("report: %+v", rep)
	}
	if !fw.Trained() {
		t.Fatal("framework not trained after Train")
	}

	// Classify known jobs by id.
	pred, err := fw.ClassifyByID(context.Background(), "c00000") // membound_app
	if err != nil {
		t.Fatal(err)
	}
	if pred.Label != job.MemoryBound {
		t.Errorf("membound_app classified %v", pred.Label)
	}
	pred, err = fw.ClassifyByID(context.Background(), "c00001") // compbound_app
	if err != nil {
		t.Fatal(err)
	}
	if pred.Label != job.ComputeBound {
		t.Errorf("compbound_app classified %v", pred.Label)
	}

	// Classify a submitted range.
	preds, err := fw.ClassifySubmitted(context.Background(), trainAt, trainAt.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 12 {
		t.Errorf("classified %d jobs, want 12", len(preds))
	}
	for _, p := range preds {
		if p.Class != p.Label.String() {
			t.Errorf("class string mismatch: %+v", p)
		}
	}
}

func TestClassifyBeforeTrainFails(t *testing.T) {
	fw := newFramework(t, DefaultConfig(), seedStore(t))
	if _, err := fw.ClassifyByID(context.Background(), "c00000"); err == nil {
		t.Error("inference before training succeeded")
	}
}

func TestTrainEmptyWindowFails(t *testing.T) {
	fw := newFramework(t, DefaultConfig(), seedStore(t))
	if _, err := fw.Train(context.Background(), time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)); err == nil {
		t.Error("training on an empty window succeeded")
	}
}

func TestKNNModelKind(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = ModelKNN
	fw := newFramework(t, cfg, seedStore(t))
	if _, err := fw.Train(context.Background(), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	name, _, _ := fw.ModelInfo()
	if name != "knn" {
		t.Errorf("model = %s", name)
	}
}

func TestUnknownModelKind(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "svm"
	if _, err := New(cfg, fetch.StoreBackend{Store: store.New()}); err == nil {
		t.Error("accepted unknown model kind")
	}
}

func TestNewRejectsUnservableConfig(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"θ without a sampling mode": func(c *Config) { c.Theta = 100 },
		"persisted lookup baseline": func(c *Config) { c.Model, c.ModelDir = ModelBaseline, t.TempDir() },
	} {
		cfg := DefaultConfig()
		edit(&cfg)
		if _, err := New(cfg, fetch.StoreBackend{Store: store.New()}); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
}

// TestAlphaPlusAnchorsWindowStart: under α⁺ the window never forgets —
// its start stays where the first Training Workflow put it while its
// end follows the triggers.
func TestAlphaPlusAnchorsWindowStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha, cfg.AlphaPlus = 5, true
	fw := newFramework(t, cfg, seedStore(t))
	first := time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC)
	for _, days := range []int{0, 4, 9} {
		now := first.AddDate(0, 0, days)
		rep, err := fw.Train(context.Background(), now)
		if err != nil {
			t.Fatal(err)
		}
		if want := first.AddDate(0, 0, -5); !rep.WindowStart.Equal(want) || !rep.WindowEnd.Equal(now) {
			t.Errorf("window [%v, %v), want [%v, %v)", rep.WindowStart, rep.WindowEnd, want, now)
		}
		if want := (5 + days) * 12; rep.FittedJobs != want {
			t.Errorf("trigger +%dd fitted %d jobs, want %d", days, rep.FittedJobs, want)
		}
	}
}

func TestPersistenceAndLoadLatest(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	cfg.ModelDir = t.TempDir()
	fw := newFramework(t, cfg, st)
	rep, err := fw.Train(context.Background(), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelVersion != 1 {
		t.Errorf("version = %d, want 1", rep.ModelVersion)
	}

	// A fresh framework over the same dir restores the model without
	// retraining.
	fresh := newFramework(t, cfg, st)
	lrep, err := fresh.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 1 || !fresh.Trained() {
		t.Errorf("restored version %d, trained %v", lrep.Version, fresh.Trained())
	}
	if len(lrep.Quarantined) != 0 {
		t.Errorf("quarantined = %v on a healthy registry", lrep.Quarantined)
	}
	pred, err := fresh.ClassifyByID(context.Background(), "c00000")
	if err != nil {
		t.Fatal(err)
	}
	if pred.Label != job.MemoryBound {
		t.Errorf("restored model classified %v", pred.Label)
	}
}

// TestLoadLatestKeepsTrainingInstant: a restart does not make the model
// young. The restored snapshot's training instant is the instant its
// version was saved, so 23 hours into a β = 1 day the staleness gauge,
// /healthz and /v1/model read 23 hours, not the age of the process.
func TestLoadLatestKeepsTrainingInstant(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	cfg.ModelDir = t.TempDir()
	if _, err := newFramework(t, cfg, st).Train(context.Background(), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	const elapsed = 23 * time.Hour
	savedAt := time.Now().Add(-elapsed).UTC().Truncate(time.Second)
	if err := os.Chtimes(filepath.Join(cfg.ModelDir, "rf-v1.model"), savedAt, savedAt); err != nil {
		t.Fatal(err)
	}

	restarted := newFramework(t, cfg, st)
	if _, err := restarted.LoadLatest(); err != nil {
		t.Fatal(err)
	}
	if _, _, at := restarted.ModelInfo(); !at.Equal(savedAt) {
		t.Errorf("restored model trained at %v, want the save instant %v", at, savedAt)
	}
	if age, ok := restarted.ModelAge(time.Now()); !ok || age < elapsed {
		t.Errorf("restored model age = %v (ok=%v), want at least the %v since it was saved", age, ok, elapsed)
	}
}

// TestRetrainPrunesModelDir: every retrain saves a version, so without
// pruning a daily cron grows ModelDir by one model file a day for ever.
// keptModelVersions + 3 trains leave keptModelVersions files, the newest
// among them, and that is the one a restart restores.
func TestRetrainPrunesModelDir(t *testing.T) {
	st := seedStore(t)
	cfg := DefaultConfig()
	cfg.ModelDir = t.TempDir()
	fw := newFramework(t, cfg, st)
	const trains = keptModelVersions + 3
	for i := 1; i <= trains; i++ {
		rep, err := fw.Train(context.Background(), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatalf("train %d: %v", i, err)
		}
		if rep.ModelVersion != i {
			t.Fatalf("train %d published version %d", i, rep.ModelVersion)
		}
	}
	files, err := filepath.Glob(filepath.Join(cfg.ModelDir, "*.model"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != keptModelVersions {
		t.Fatalf("%d trains left %d model files, want %d: %v", trains, len(files), keptModelVersions, files)
	}
	lrep, err := newFramework(t, cfg, st).LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != trains {
		t.Fatalf("restart restored version %d, want the newest, %d", lrep.Version, trains)
	}
}

// TestLoadLatestRestoresParentModelDir: a model directory written before
// the forest went flat (testdata, MCBRF001 as PR 12 wrote it) is
// restored by LoadLatest and predicts what the writing commit recorded.
func TestLoadLatestRestoresParentModelDir(t *testing.T) {
	var golden struct {
		ModelVersion int          `json:"model_version"`
		Predictions  []Prediction `json:"predictions"`
	}
	doc, err := os.ReadFile("testdata/parent_pr12_modeldir.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &golden); err != nil || len(golden.Predictions) == 0 {
		t.Fatalf("golden: %d predictions, %v", len(golden.Predictions), err)
	}
	cfg := DefaultConfig()
	cfg.ModelDir = "testdata/parent_pr12_modeldir" // LoadLatest only reads it
	fw := newFramework(t, cfg, seedStore(t))
	rep, err := fw.LoadLatest()
	if err != nil || rep.Version != golden.ModelVersion || len(rep.Quarantined) != 0 {
		t.Fatalf("LoadLatest = %+v, %v; want version %d, nothing quarantined", rep, err, golden.ModelVersion)
	}
	for _, want := range golden.Predictions {
		got, err := fw.ClassifyByID(context.Background(), want.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.ModelVersion != want.ModelVersion {
			t.Errorf("job %s: restored model says %s v%d, parent recorded %s v%d",
				want.JobID, got.Class, got.ModelVersion, want.Class, want.ModelVersion)
		}
	}
}

func TestLoadLatestWithoutPersistence(t *testing.T) {
	fw := newFramework(t, DefaultConfig(), seedStore(t))
	if _, err := fw.LoadLatest(); err == nil {
		t.Error("LoadLatest without ModelDir succeeded")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	fw := newFramework(t, Config{}, seedStore(t))
	cfg := fw.Config()
	if cfg.Alpha != 15 || cfg.Beta != 1 {
		t.Errorf("defaults = α%d β%d", cfg.Alpha, cfg.Beta)
	}
	if cfg.Machine.Name != "Fugaku" {
		t.Errorf("machine = %s", cfg.Machine.Name)
	}
}
