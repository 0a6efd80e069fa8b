package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/ml/knn"
	"mcbound/internal/store"
)

// wideStore holds 6 000 characterizable jobs over 2 000 distinct feature
// strings, submitted through January 2024: a window whose vectors, not
// its bookkeeping, are what a fit allocates most.
func wideStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 6000; i++ {
		submit := start.Add(time.Duration(i) * 7 * time.Minute)
		perfGF, bwGB := 50.0, 50.0 // op = 1
		if i%3 == 0 {
			perfGF, bwGB = 300, 5 // op = 60
		}
		err := st.Insert(&job.Job{
			ID:             fmt.Sprintf("w%05d", i),
			User:           fmt.Sprintf("u%03d", i%40),
			Name:           fmt.Sprintf("app_%04d", i%2000),
			Environment:    "gcc/12.2",
			CoresRequested: 48,
			NodesRequested: 1,
			NodesAllocated: 1,
			FreqRequested:  job.FreqNormal,
			SubmitTime:     submit,
			StartTime:      submit.Add(time.Minute),
			EndTime:        submit.Add(31 * time.Minute),
			Counters: job.PerfCounters{
				Perf2: perfGF * 1e9 * 1800,
				Perf4: bwGB * 1e9 * 1800 * job.CoresPerCMG / job.CacheLineBytes,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// trainAllocBudget bounds the bytes a KNN retrain on wideStore's window
// allocates, save included: 11.93 MB measured at GOMAXPROCS 2, plus
// 10 %. Before the window's vectors went to the model in one slab and the
// model streamed to disk, the same retrain allocated 20.80 MB: the
// encoder's vectors, the model's copy of them and the marshalled file,
// each ≈ 3 MB at 2 000 groups of 384.
const trainAllocBudget = 13.1e6

// TestKNNRetrainAllocations is a tripwire for the retrain's memory: a
// second copy of the window's vectors, or a model marshalled whole
// before it is saved, puts a KNN retrain past trainAllocBudget.
func TestKNNRetrainAllocations(t *testing.T) {
	// The index build gives each worker scratch of its own (ivf's
	// calibration truth, a 1.5 MB table a worker), so the figure holds
	// at the worker count it was measured at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := DefaultConfig()
	cfg.Model = ModelKNN
	cfg.KNN.Index = knn.IndexConfig{Mode: knn.IndexOn, Seed: 1}
	cfg.ModelDir = t.TempDir()
	fw := newFramework(t, cfg, wideStore(t))
	at := time.Date(2024, 1, 31, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	// The first train also fits the fallback lookup table and fills the
	// embedding cache; a retrain does neither.
	if _, err := fw.Train(ctx, at); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := fw.Train(ctx, at)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	groups := fw.state.Load().model.(*knn.Classifier).Groups()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("retrain of %d jobs, %d groups: %.2f MB allocated", rep.FittedJobs, groups, float64(got)/1e6)
	if float64(got) > trainAllocBudget {
		t.Fatalf("a KNN retrain of %d jobs (%d groups) allocated %.2f MB, over the %.1f MB budget",
			rep.FittedJobs, groups, float64(got)/1e6, trainAllocBudget/1e6)
	}
}
