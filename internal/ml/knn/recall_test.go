package knn

import (
	"fmt"
	"testing"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/ivf"
	"mcbound/internal/roofline"
	"mcbound/internal/workload"
)

// recallGate is the accuracy floor of the IVF path: measured recall@k
// against brute force must not drop below it at any training-set scale.
const recallGate = 0.95

// recallTrace generates and labels the synthetic training window for
// one scale: a 3-week trace whose application population (and therefore
// the trained group count) grows with the scale factor.
func recallTrace(t *testing.T, scale int) []*job.Job {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2024, 1, 22, 0, 0, 0, 0, time.UTC)
	cfg.MaintenanceStart, cfg.MaintenanceEnd = time.Time{}, time.Time{}
	cfg.JobsPerDay = 55 * scale
	cfg.Users = 30 * scale
	cfg.InitialApps = 140 * scale
	cfg.AppBirthsPerDay = float64(scale)
	cfg.BatchMean = 3
	jobs, err := workload.NewGenerator(cfg, uint64(1000+scale)).Generate()
	if err != nil {
		t.Fatal(err)
	}
	roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine)).GenerateLabels(jobs)
	labeled := jobs[:0]
	for _, j := range jobs {
		if j.TrueLabel != job.Unknown {
			labeled = append(labeled, j)
		}
	}
	return labeled
}

// TestRecallGateAtScale is the regression gate on the sub-linear claim
// (`make recall-gate`, in `make check`): per scale it trains one exact
// and one IVF-indexed classifier on the same encoded trace, lets the
// build calibrate nprobe, and requires the index's top-k group ids to
// cover at least recallGate of the exact scan's over 256 trace queries.
func TestRecallGateAtScale(t *testing.T) {
	const k, nq = 5, 256
	for _, scale := range []int{1, 10, 100} {
		t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
			if scale == 100 && testing.Short() {
				t.Skip("×100 (≈ 117 K jobs, ≈ 1.5 s) is skipped under -short")
			}
			jobs := recallTrace(t, scale)
			x := encode.NewEncoder(nil, nil).Encode(jobs)
			y := make([]job.Label, len(jobs))
			for i, j := range jobs {
				y[i] = j.TrueLabel
			}
			brute := New(Config{K: k, Index: IndexConfig{Mode: IndexOff}})
			indexed := New(Config{K: k, Index: IndexConfig{Mode: IndexOn, Seed: 17}})
			if err := brute.Train(x, y); err != nil {
				t.Fatal(err)
			}
			if err := indexed.Train(x, y); err != nil {
				t.Fatal(err)
			}
			index := indexed.VectorIndex()
			if index == nil {
				t.Fatalf("indexed classifier built no index (%d groups)", indexed.Groups())
			}

			data, dim := brute.Matrix()
			queries := make([]float32, 0, nq*dim)
			for i := 0; i < nq; i++ {
				queries = append(queries, x[(i*7919)%len(x)]...)
			}
			truth := ivf.ExactTopK(data, dim, queries, k)
			var hits, total int
			var dst []ml.Candidate
			for i, want := range truth {
				dst = index.Search(queries[i*dim:(i+1)*dim], k, dst)
				got := make(map[int]bool, k)
				for _, c := range dst {
					got[c.ID] = true
				}
				for _, w := range want {
					total++
					if got[w.ID] {
						hits++
					}
				}
			}
			recall := float64(hits) / float64(total)
			info := indexed.IndexInfo()
			t.Logf("×%d: %d jobs → %d groups, %d clusters, nprobe %d, recall@%d = %.4f",
				scale, len(jobs), brute.Groups(), info.Clusters, info.NProbe, k, recall)
			if recall < recallGate {
				t.Fatalf("recall gate failed at scale ×%d: %.4f < %.2f", scale, recall, recallGate)
			}
		})
	}
}
