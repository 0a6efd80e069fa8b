package ivf

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"mcbound/internal/encode"
	"mcbound/internal/linalg"
	"mcbound/internal/stats"
)

// denseAssign is the assignment as a dense scan defines it, and as
// kmeans computed it before the filter: every centroid measured with
// linalg.SqEuclideanRows, the lowest index of the least distance wins.
func denseAssign(data []float32, dim int, rows []int32, cents []float32) []int32 {
	out := make([]int32, len(rows))
	cdist := make([]float64, len(cents)/dim)
	for i, r := range rows {
		linalg.SqEuclideanRows(rowOf(data, dim, int(r)), cents, cdist)
		best, bestD := 0, math.Inf(1)
		for c, d := range cdist {
			if d < bestD {
				best, bestD = c, d
			}
		}
		out[i] = int32(best)
	}
	return out
}

// checkAssign compares assignRows over every row of data with the
// dense scan.
func checkAssign(t testing.TB, name string, data []float32, dim int, cents []float32) {
	t.Helper()
	n := len(data) / dim
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	got := make([]int32, n)
	assignRows(data, dim, newSparseRows(data, dim), rows, cents, newCentroidTable(len(cents)/dim, dim), got)
	want := denseAssign(data, dim, rows, cents)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d assigned to centroid %d, dense scan says %d", name, i, got[i], want[i])
		}
	}
}

// embeddingMatrix embeds n distinct feature strings of the shape KNN
// groups by (user, name, cores, nodes, environment, frequency, with the
// encoder's field weights): 250 users, each running a few applications
// of their own in one of two environments. On 5000 rows Build
// calibrates to 28 of its 140 cells, near the 30 of 142 the served s30
// matrix calibrates to, so BenchmarkBuild weighs calibration as a
// served build does.
func embeddingMatrix(n int, seed uint64) []float32 {
	rng := stats.NewRNG(seed)
	emb := encode.NewHashingEmbedder()
	emb.FieldWeights = encode.FieldWeightsFor(encode.DefaultFeatures())
	data := make([]float32, 0, n*encode.Dim)
	seen := make(map[string]bool, n)
	for len(data) < n*encode.Dim {
		u := rng.Intn(250)
		s := fmt.Sprintf("u%04d,app_%03d,%d,%d,env%d/%d,%dMHz", u, (7*u+rng.Intn(4))%300,
			12<<rng.Intn(3), 1<<rng.Intn(5), u%9, rng.Intn(2), 2000+200*rng.Intn(2))
		if !seen[s] {
			seen[s] = true
			data = append(data, emb.Embed(s)...)
		}
	}
	return data
}

// sampleMeans is k centroids as k-means leaves them: the mean of a
// random tenth of the rows each.
func sampleMeans(data []float32, dim, k int, seed uint64) []float32 {
	rng := stats.NewRNG(seed)
	n := len(data) / dim
	cents := make([]float32, k*dim)
	sum := make([]float64, dim)
	for c := 0; c < k; c++ {
		clear(sum)
		m := max(1, n/10)
		for j := 0; j < m; j++ {
			for d, v := range rowOf(data, dim, rng.Intn(n)) {
				sum[d] += float64(v)
			}
		}
		for d := range sum {
			cents[c*dim+d] = float32(sum[d] / float64(m))
		}
	}
	return cents
}

func TestAssignMatchesReference(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		for _, dim := range []int{1, 5, 16, 96} {
			data := randMatrix(600, dim, 3, uint64(dim))
			checkAssign(t, "random centroids", data, dim, randMatrix(37, dim, 3, uint64(dim)+1))
			checkAssign(t, "sample means", data, dim, sampleMeans(data, dim, 53, uint64(dim)+2))
		}
	})

	t.Run("embeddings", func(t *testing.T) {
		data := embeddingMatrix(1500, 1)
		for _, k := range []int{1, 16, 77, 142} {
			checkAssign(t, fmt.Sprintf("%d means", k), data, encode.Dim, sampleMeans(data, encode.Dim, k, uint64(k)))
		}
		// Centroids that are rows: every row has an exact zero-distance
		// match, often several (the strings repeat).
		checkAssign(t, "rows as centroids", data, encode.Dim, append([]float32(nil), data[:200*encode.Dim]...))
	})

	t.Run("ties", func(t *testing.T) {
		const dim = 24
		data := randMatrix(300, dim, 2, 5)
		cents := sampleMeans(data, dim, 20, 6)
		// Duplicate centroids: 3 and 11 are 7 again, 15 is 2.
		copy(rowOf(cents, dim, 3), rowOf(cents, dim, 7))
		copy(rowOf(cents, dim, 11), rowOf(cents, dim, 7))
		copy(rowOf(cents, dim, 15), rowOf(cents, dim, 2))
		// Centroid 9 is 8 one ulp up in every coordinate, 13 one ulp down
		// in a single one.
		for d := range rowOf(cents, dim, 8) {
			v := cents[8*dim+d]
			cents[9*dim+d] = math.Nextafter32(v, float32(math.Inf(1)))
			cents[13*dim+d] = v
		}
		cents[13*dim+4] = math.Nextafter32(cents[13*dim+4], float32(math.Inf(-1)))
		// Rows on top of the planted centroids, and rows equidistant from
		// two centroids: centroid 17 and 18 are row 40 moved by ±0.5 in
		// one coordinate (exact in float32 at these magnitudes).
		for i, c := range []int{3, 7, 11, 2, 15, 8, 9, 13} {
			copy(rowOf(data, dim, i), rowOf(cents, dim, c))
		}
		copy(rowOf(cents, dim, 17), rowOf(data, dim, 40))
		copy(rowOf(cents, dim, 18), rowOf(data, dim, 40))
		cents[17*dim+6] += 0.5
		cents[18*dim+6] -= 0.5
		checkAssign(t, "planted ties", data, dim, cents)
		got := make([]int32, 1)
		assignRows(data, dim, newSparseRows(data, dim), []int32{40}, cents, newCentroidTable(len(cents)/dim, dim), got)
		if got[0] != 17 {
			t.Fatalf("row equidistant from centroids 17 and 18 went to %d", got[0])
		}
	})

	t.Run("zero and single nonzero rows", func(t *testing.T) {
		data := embeddingMatrix(50, 2)
		clear(rowOf(data, encode.Dim, 0))
		single := rowOf(data, encode.Dim, 1)
		clear(single)
		single[100] = 1
		single = rowOf(data, encode.Dim, 2)
		clear(single)
		single[383] = -0.25
		checkAssign(t, "sparse extremes", data, encode.Dim, sampleMeans(data, encode.Dim, 9, 3))
	})
}

// FuzzAssignMatchesReference reads the bytes as float32 bit patterns —
// NaNs, infinities, denormals and −0 included — into the first k rows as
// centroids and the rest as the rows assigned to them; every third word
// of the rows is zeroed so the filter sees sparse rows.
func FuzzAssignMatchesReference(f *testing.F) {
	le := binary.LittleEndian
	words := func(vs ...float32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	f.Add(words(1, 2, 3, 4, 1, 2, 3, 4, 0, 0, 5, 5), uint8(2), uint8(2))
	f.Add(words(1, 1, 1, 1, 2, 2, 0, 0, 3, 3), uint8(2), uint8(2))
	f.Add(words(inf, 1, 1, 2, 0, 0, 5, 5), uint8(2), uint8(2))
	f.Add(words(nan, 1, 1, 2, 3, 3, 1, 1), uint8(2), uint8(2))
	f.Add(words(1e30, -1e30, 1e-30, 3e38, 1, 1, -3e38, 3e38, 0, 1), uint8(2), uint8(3))
	f.Add(words(embeddingMatrix(6, 4)...), uint8(255), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, dim8, k8 uint8) {
		v := make([]float32, len(raw)/4)
		for i := range v {
			v[i] = math.Float32frombits(le.Uint32(raw[4*i:]))
		}
		dim := 1 + int(dim8)%32
		if int(dim8) == 255 {
			dim = encode.Dim
		}
		k := 1 + int(k8)%8
		if len(v) < (k+1)*dim {
			return
		}
		cents, data := v[:k*dim], v[k*dim:]
		data = data[:len(data)/dim*dim]
		for i := 0; i < len(data); i += 3 {
			data[i] = 0
		}
		checkAssign(t, "fuzzed", data, dim, cents)
	})
}

// BenchmarkBuild is Build, k-means and calibration together, on the
// dense golden shape (TestGoldenSearchHash's first matrix) and on a
// sparse embedding matrix the size of qsub_knn_s30's groups.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []float32
		dim  int
	}{
		{"dense-3000x96", randMatrix(3000, 96, 3, 96), 96},
		{"embeddings-5000x384", embeddingMatrix(5000, 9), encode.Dim},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var ix *Index
			for i := 0; i < b.N; i++ {
				var err error
				if ix, err = Build(bc.data, bc.dim, Config{Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
			// The calibrated width is what the build spent its walk on.
			b.ReportMetric(float64(ix.NProbe()), "nprobe")
			b.ReportMetric(float64(ix.Clusters()), "cells")
		})
	}
}
