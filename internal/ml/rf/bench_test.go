package rf

import (
	"fmt"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// benchData builds an n×dim training set with cluster structure.
func benchData(n, dim int, seed uint64) ([][]float32, []job.Label) {
	rng := stats.NewRNG(seed)
	x := make([][]float32, n)
	y := make([]job.Label, n)
	for i := range x {
		v := make([]float32, dim)
		off := float32(0)
		if i%4 == 0 {
			off = 2
		}
		for d := range v {
			v[d] = off + float32(rng.Float64())
		}
		x[i] = v
		if off > 0 {
			y[i] = job.ComputeBound
		} else {
			y[i] = job.MemoryBound
		}
	}
	return x, y
}

// BenchmarkTrainTrees is the ensemble-size ablation (Fig. 7's dominant
// cost scales linearly in the tree count).
func BenchmarkTrainTrees(b *testing.B) {
	x, y := benchData(5000, 384, 1)
	for _, trees := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = trees
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				if err := c.Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainBins is the histogram-resolution ablation: more bins
// refine the split search at linear extra sweep cost.
func BenchmarkTrainBins(b *testing.B) {
	x, y := benchData(5000, 384, 2)
	for _, bins := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = 20
			cfg.Bins = bins
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				if err := c.Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainSize tracks Fig. 7: training cost versus window size.
func BenchmarkTrainSize(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		x, y := benchData(n, 384, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = 20
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				if err := c.Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredict measures inference on the fitted forest (Fig. 8's RF
// series: constant in the training window): batch=1 is the per-qsub
// call, batch=1000 the periodic window, where the tree-major kernel
// amortizes each tree over the whole chunk.
func BenchmarkPredict(b *testing.B) {
	x, y := benchData(20000, 384, 4)
	c := New(DefaultConfig())
	if err := c.Train(x, y); err != nil {
		b.Fatal(err)
	}
	queries, _ := benchData(1000, 384, 5)
	for _, batch := range []int{1, 1000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Predict(queries[:batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarshal measures forest persistence.
func BenchmarkMarshal(b *testing.B) {
	x, y := benchData(5000, 384, 6)
	cfg := DefaultConfig()
	cfg.NumTrees = 20
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
