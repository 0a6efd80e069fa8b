package simulate

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/ml/knn"
	"mcbound/internal/store"
	"mcbound/internal/workload"
)

// coreRun is what one deployment produced: its rendered timeline, every
// model file it wrote (MarshalBinary's bytes under the registry's
// names), and the classes it served for the day after the replay.
type coreRun struct {
	timeline string
	models   map[string][]byte
	classes  []string
}

// TestModelsIndependentOfCores: a model is a function of its trace and
// its parameters, not of the core count. rf.Train hands trees to
// min(GOMAXPROCS, NumTrees) workers, and linalg.ParallelFor chunks the
// bulk embedding, the KNN scan, the IVF build and the RF walk by
// GOMAXPROCS — the only two places the program fans out
// (TestArchitecture's fan-out rows). An RF and an IVF-indexed KNN
// deployment replay the same days of one trace at GOMAXPROCS 1, 2, 3
// and 8; the timeline, every model file and the served classes must be
// those of GOMAXPROCS 1. `make purego` runs it on the Go kernels too.
func TestModelsIndependentOfCores(t *testing.T) {
	jobs, err := workload.NewGenerator(workload.EvalConfig(0.005), 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.Insert(jobs...); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 2, 10, 0, 0, 0, 0, time.UTC) // past the trace's maintenance gap
	end := start.AddDate(0, 0, 3)
	next := st.SubmittedBetween(end, end.AddDate(0, 0, 1))
	if len(next) == 0 {
		t.Fatal("no submissions to classify after the replay")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, model := range []core.ModelKind{core.ModelRF, core.ModelKNN} {
		var first coreRun
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			cfg := core.DefaultConfig()
			cfg.Model = model
			cfg.KNN.Index.Mode = knn.IndexOn
			cfg.ModelDir = t.TempDir()
			fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			tl, err := Over(fw).Run(context.Background(), start, end)
			if err != nil {
				t.Fatal(err)
			}
			if sum := tl.Summary(); sum.Trainings != 3 || sum.Classified == 0 {
				t.Fatalf("%s, GOMAXPROCS %d: %d trainings, %d jobs classified", model, procs, sum.Trainings, sum.Classified)
			}
			if model == core.ModelKNN && !fw.IndexInfo().Enabled {
				t.Fatalf("GOMAXPROCS %d: the KNN model carries no index", procs)
			}
			run := coreRun{models: map[string][]byte{}}
			var text bytes.Buffer
			if err := tl.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			run.timeline = text.String()
			files, err := filepath.Glob(filepath.Join(cfg.ModelDir, "*"))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s, GOMAXPROCS %d: no model files (%v)", model, procs, err)
			}
			for _, f := range files {
				if run.models[filepath.Base(f)], err = os.ReadFile(f); err != nil {
					t.Fatal(err)
				}
			}
			preds, err := fw.ClassifyJobs(context.Background(), next)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range preds {
				run.classes = append(run.classes, p.Class)
			}

			if procs == 1 {
				first = run
				continue
			}
			if run.timeline != first.timeline {
				t.Errorf("%s: the timeline at GOMAXPROCS %d is not GOMAXPROCS 1's:\n%s\n--- vs\n%s", model, procs, run.timeline, first.timeline)
			}
			if len(run.models) != len(first.models) {
				t.Errorf("%s: %d model files at GOMAXPROCS %d, %d at 1", model, len(run.models), procs, len(first.models))
			}
			for name, b := range first.models {
				if !bytes.Equal(run.models[name], b) {
					t.Errorf("%s: %s at GOMAXPROCS %d differs from GOMAXPROCS 1's", model, name, procs)
				}
			}
			for i, c := range run.classes {
				if c != first.classes[i] {
					t.Fatalf("%s: job %s is %s at GOMAXPROCS %d, %s at 1", model, next[i].ID, c, procs, first.classes[i])
				}
			}
		}
	}
}
