package knn

import (
	"fmt"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// benchData builds n points of dimension dim with dup duplicates per
// unique vector (dup=1 means all-distinct), labels split by cluster.
func benchData(n, dim, dup int, seed uint64) ([][]float32, []job.Label) {
	rng := stats.NewRNG(seed)
	uniques := n / dup
	if uniques < 1 {
		uniques = 1
	}
	base := make([][]float32, uniques)
	labels := make([]job.Label, uniques)
	for i := range base {
		v := make([]float32, dim)
		off := float32(0)
		if i%4 == 0 {
			off = 3
		}
		for d := range v {
			v[d] = off + float32(rng.Float64())
		}
		base[i] = v
		if off > 0 {
			labels[i] = job.ComputeBound
		} else {
			labels[i] = job.MemoryBound
		}
	}
	x := make([][]float32, 0, n)
	y := make([]job.Label, 0, n)
	for i := 0; i < n; i++ {
		x = append(x, base[i%uniques])
		y = append(y, labels[i%uniques])
	}
	return x, y
}

// BenchmarkTrain measures KNN "training" (the storage + dedup step the
// paper reports in fractions of a second).
func BenchmarkTrain(b *testing.B) {
	x, y := benchData(20000, 384, 20, 1)
	c := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Train(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures per-query inference at realistic training
// sizes; the duplicate factor controls how much the dedup grouping
// compresses the scan (batch submissions give 10–50x on real traces).
func BenchmarkPredict(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		dup  int
	}{
		{"n=20k/dup=1", 20000, 1},
		{"n=20k/dup=20", 20000, 20},
		{"n=100k/dup=20", 100000, 20},
	} {
		b.Run(tc.name, func(b *testing.B) {
			x, y := benchData(tc.n, 384, tc.dup, 2)
			c := New(DefaultConfig())
			if err := c.Train(x, y); err != nil {
				b.Fatal(err)
			}
			queries, _ := benchData(64, 384, 1, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Predict(queries[:1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictK is the k ablation: the bounded top-k insertion keeps
// the cost nearly flat in k.
func BenchmarkPredictK(b *testing.B) {
	x, y := benchData(20000, 384, 20, 4)
	queries, _ := benchData(16, 384, 1, 5)
	for _, k := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			c := New(Config{K: k})
			if err := c.Train(x, y); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Predict(queries[:1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarshal measures model persistence (the skops substitute).
func BenchmarkMarshal(b *testing.B) {
	x, y := benchData(20000, 384, 20, 6)
	c := New(DefaultConfig())
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
