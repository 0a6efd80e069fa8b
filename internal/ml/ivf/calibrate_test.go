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

// exactTopK is the dense reference ExactTopK is held to, as calibration
// measured its truth before the filter: every row measured, inserted in
// ascending id.
func exactTopK(data []float32, dim int, q []float32, k int) []int32 {
	type nd struct {
		d  float64
		id int32
	}
	n := len(data) / dim
	if k > n {
		k = n
	}
	top := make([]nd, 0, k)
	worst := math.Inf(1)
	const exactBlock = 256
	var block [exactBlock]float64
	for lo := 0; lo < n; lo += exactBlock {
		dist := block[:min(exactBlock, n-lo)]
		linalg.SqEuclideanRows(q, data[lo*dim:(lo+len(dist))*dim], dist)
		for j, d := range dist {
			if len(top) == k && d >= worst {
				continue
			}
			pos := len(top)
			if pos < k {
				top = append(top, nd{})
			} else {
				pos--
			}
			for pos > 0 && top[pos-1].d > d {
				top[pos] = top[pos-1]
				pos--
			}
			top[pos] = nd{d: d, id: int32(lo + j)}
			worst = top[len(top)-1].d
		}
	}
	out := make([]int32, len(top))
	for i, t := range top {
		out[i] = t.id
	}
	return out
}

// calibrationSample is the query rows calibrateNProbe draws for seed.
func calibrationSample(ix *Index, seed uint64) []int32 {
	nq := min(calibrationQueries, ix.n)
	rng := stats.NewRNG(seed ^ 0xc2b2ae3d27d4eb4f)
	rows := make([]int32, ix.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for i := 0; i < nq; i++ {
		j := i + rng.Intn(ix.n-i)
		rows[i], rows[j] = rows[j], rows[i]
	}
	return rows[:nq]
}

// searchHits is the recall numerator of one query at width np as the
// ladder counted it before the walk: the true neighbours among what
// Search returns with ix's width set to np for the call.
func searchHits(ix *Index, q []float32, k, np int, truth []int32) int {
	defer func(kept int) { ix.nprobe = kept }(ix.nprobe)
	ix.nprobe = np
	hits := 0
	dst := ix.Search(q, k, nil)
	for _, want := range truth {
		for _, got := range dst {
			if int32(got.ID) == want {
				hits++
				break
			}
		}
	}
	return hits
}

// referenceNProbe is calibrateNProbe as it was before the walk: the
// dense truth, and one search a query for every width the ladder asks.
func referenceNProbe(ix *Index, seed uint64) int {
	kept := ix.Clusters()
	if kept <= 2 {
		return kept
	}
	target := DefaultTargetRecall + (1-DefaultTargetRecall)/2
	k := min(calibrationK, ix.n)
	rows := calibrationSample(ix, seed)
	truth := make([][]int32, len(rows))
	for i, r := range rows {
		truth[i] = exactTopK(ix.data, ix.dim, ix.row(int(r)), k)
	}
	recallAt := func(np int) float64 {
		hits, total := 0, 0
		for i, r := range rows {
			hits += searchHits(ix, ix.row(int(r)), k, np, truth[i])
			total += len(truth[i])
		}
		return float64(hits) / float64(total)
	}
	lo, hi := 0, kept
	for np := 2; np < kept; np = np*3/2 + 1 {
		if recallAt(np) >= target {
			hi = np
			break
		}
		lo = np
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if recallAt(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// checkWalk holds the calibration walk to search at every width 1…
// Clusters(), advancing it one width at a time as a ladder would, and
// Build's nprobe to the reference ladder's. It returns how many
// (query, width) searches the scan budget stops early.
func checkWalk(t *testing.T, name string, data []float32, dim int, cfg Config, k int) (early int) {
	t.Helper()
	ix, err := Build(data, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceNProbe(ix, cfg.Seed); ix.NProbe() != want {
		t.Errorf("%s: Build calibrated nprobe %d, the reference ladder %d", name, ix.NProbe(), want)
	}
	kept := ix.Clusters()
	rows := calibrationSample(ix, cfg.Seed)
	cal := ix.newCalibration(rows, k)
	kk := min(k, ix.n)
	truth := make([][]int32, len(rows))
	for i, r := range rows {
		truth[i] = exactTopK(ix.data, dim, ix.row(int(r)), kk)
	}
	for np := 1; np <= kept; np++ {
		got := cal.recallAt(np)
		hits, total := 0, 0
		for i, r := range rows {
			want := searchHits(ix, ix.row(int(r)), k, np, truth[i])
			if h := int(cal.walks[i].hits[np-1]); h != want {
				t.Fatalf("%s: query row %d at width %d of %d: the walk counts %d hits, search %d", name, r, np, kept, h, want)
			}
			hits += want
			total += len(truth[i])
		}
		if want := float64(hits) / float64(total); got != want {
			t.Fatalf("%s: recall at width %d is %v, the searches give %v", name, np, got, want)
		}
	}
	// A search stops early after its j-th cell, j < np, once the rows of
	// its first j cells reach the budget and k of them fill the pool.
	b := ix.newSearchBuf()
	for _, r := range rows {
		linalg.SqEuclideanRows(ix.row(int(r)), ix.cents, b.cdist)
		b.selectNearestClusters(b.cdist, kept)
		for np := 2; np <= kept; np++ {
			scanned := 0
			for _, p := range b.probe[:np-1] {
				scanned += int(ix.starts[p.c+1] - ix.starts[p.c])
				if scanned >= ix.scanBudget(np) && scanned >= kk {
					early++
					break
				}
			}
		}
	}
	return early
}

// duplicatedRows repeats each of n embedded rows 1–8 times, the copies
// scattered: a query row's top-5 is then often a tie at distance 0 cut
// by the lower-id rule.
func duplicatedRows(n int, seed uint64) []float32 {
	rng := stats.NewRNG(seed)
	src := embeddingMatrix(n, seed)
	var rows [][]float32
	for r := 0; r < n; r++ {
		for range 1 + rng.Intn(8) {
			rows = append(rows, rowOf(src, encode.Dim, r))
		}
	}
	for i := len(rows) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	var data []float32
	for _, r := range rows {
		data = append(data, r...)
	}
	return data
}

func TestCalibrationWalkMatchesSearch(t *testing.T) {
	early := 0
	early += checkWalk(t, "dense golden shape", randMatrix(1200, 50, 3, 50), 50, Config{Seed: 7}, calibrationK)
	early += checkWalk(t, "embeddings", embeddingMatrix(500, 1), encode.Dim, Config{Seed: 7}, calibrationK)
	early += checkWalk(t, "duplicated embeddings", duplicatedRows(100, 2), encode.Dim, Config{Seed: 3}, calibrationK)
	early += checkWalk(t, "n < 128", clusteredMatrix(90, 6, 12, 5, 3), 12, Config{Seed: 1}, calibrationK)
	for _, cells := range []int{2, 3} {
		data := clusteredMatrix(400, 8, 10, 4, uint64(cells))
		name := fmt.Sprintf("%d cells", cells)
		early += checkWalk(t, name, data, 10, Config{NClusters: cells, Seed: 5}, calibrationK)
		if ix, _ := Build(data, 10, Config{NClusters: cells, Seed: 5}); ix.Clusters() != cells {
			t.Fatalf("%s: the index kept %d cells", name, ix.Clusters())
		}
	}
	early += checkWalk(t, "k > n", clusteredMatrix(40, 4, 6, 3, 9), 6, Config{NClusters: 9, Seed: 2}, 45)
	for seed := uint64(1); seed <= 5; seed++ {
		data := clusteredMatrix(400, 20, 16, 1, seed)
		for _, cells := range []int{0, 10, 50} {
			early += checkWalk(t, fmt.Sprintf("seed %d, %d cells", seed, cells), data, 16, Config{NClusters: cells, Seed: seed}, calibrationK)
		}
	}
	// The budget rule is what makes a width's pool differ from the pool
	// of its own number of cells; a test where it never fires shows
	// nothing about it.
	if early == 0 {
		t.Fatal("the scan budget stopped no search early")
	}
}

// checkExact compares ExactTopK over every query with the dense
// reference, ids and distance bits.
func checkExact(t testing.TB, name string, data []float32, dim int, queries []float32, k int) {
	t.Helper()
	got := ExactTopK(data, dim, queries, k)
	if len(got) != len(queries)/dim {
		t.Fatalf("%s: %d answers for %d queries", name, len(got), len(queries)/dim)
	}
	for i := range got {
		q := rowOf(queries, dim, i)
		var want []int32
		if k > 0 {
			want = exactTopK(data, dim, q, k)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("%s, query %d, k %d: %d neighbours, the dense scan %d", name, i, k, len(got[i]), len(want))
		}
		for j, w := range want {
			d := linalg.SqEuclidean(q, rowOf(data, dim, int(w)))
			if g := got[i][j]; g.ID != int(w) || math.Float64bits(g.Dist) != math.Float64bits(d) {
				t.Fatalf("%s, query %d, k %d, rank %d: row %d at %v, the dense scan row %d at %v", name, i, k, j, g.ID, g.Dist, w, d)
			}
		}
	}
}

func TestExactTopKMatchesDense(t *testing.T) {
	const dim = encode.Dim
	// Two blocks of rows (496 and 104). Ties: row 3 three more times,
	// row 9 once, across the blocks; an all-zero row; and rows 10⁶ times
	// the unit norm and 10⁻⁶ of it, squared.
	data := embeddingMatrix(600, 5)
	for _, r := range []int{17, 230, 599} {
		copy(rowOf(data, dim, r), rowOf(data, dim, 3))
	}
	copy(rowOf(data, dim, 500), rowOf(data, dim, 9))
	clear(rowOf(data, dim, 40))
	linalg.Scale(1e3, rowOf(data, dim, 60))
	linalg.Scale(1e-3, rowOf(data, dim, 61))
	checkExact(t, "embeddings", data, dim, data, 5)
	for _, k := range []int{1, 64, 599, 600, 900} {
		checkExact(t, "embeddings", data, dim, data[:40*dim], k)
	}
	checkExact(t, "k = 0", data, dim, data[:10*dim], 0)

	// A NaN in a query sends that query to every row; a NaN in the matrix
	// sends every query there. Both are the dense scan's answer.
	queries := append([]float32(nil), data[:50*dim]...)
	queries[7*dim+100] = float32(math.NaN())
	checkExact(t, "NaN query", data, dim, queries, 5)
	nan := append([]float32(nil), data...)
	nan[20*dim+5] = float32(math.NaN())
	checkExact(t, "NaN row", nan, dim, data[:50*dim], 5)

	dense := randMatrix(800, 96, 3, 96)
	checkExact(t, "dense", dense, 96, randMatrix(40, 96, 3, 97), 5)
	checkExact(t, "dense rows as queries", dense, 96, dense[:40*96], 5)
}

// FuzzExactTopKMatchesDense reads the bytes as float32 bit patterns —
// NaNs, infinities, denormals and −0 included — into the first nq rows
// as queries and the rest as the matrix; every third word of the matrix
// is zeroed so the filter sees sparse rows.
func FuzzExactTopKMatchesDense(f *testing.F) {
	le := binary.LittleEndian
	words := func(vs ...float32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	f.Add(words(1, 2, 1, 2, 1, 2, 3, 4, 1, 2), uint8(2), uint8(2), uint8(1))
	f.Add(words(0, 0, 1, 1, 1, 1, 0, 0, -1, -1, 1, 1), uint8(2), uint8(3), uint8(2))
	f.Add(words(inf, 1, 1, 2, 0, 0, 5, 5), uint8(2), uint8(2), uint8(1))
	f.Add(words(1, 1, nan, 2, 3, 3, 1, 1), uint8(2), uint8(1), uint8(1))
	f.Add(words(1e30, -1e30, 1e-30, 3e38, 1, 1, -3e38, 3e38, 0, 1), uint8(2), uint8(3), uint8(1))
	f.Add(words(embeddingMatrix(8, 4)...), uint8(255), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, dim8, k8, nq8 uint8) {
		v := make([]float32, len(raw)/4)
		for i := range v {
			v[i] = math.Float32frombits(le.Uint32(raw[4*i:]))
		}
		dim := 1 + int(dim8)%32
		if dim8 == 255 {
			dim = encode.Dim
		}
		nq := 1 + int(nq8)%4
		if len(v) < (nq+1)*dim {
			return
		}
		queries, data := v[:nq*dim], v[nq*dim:]
		data = data[:len(data)/dim*dim]
		for i := 0; i < len(data); i += 3 {
			data[i] = 0
		}
		checkExact(t, "fuzzed", data, dim, queries, int(k8)%12)
	})
}

// BenchmarkExactTopK is calibration's truth on the embedding shape of
// BenchmarkBuild: 128 of its rows against all 5 000.
func BenchmarkExactTopK(b *testing.B) {
	data := embeddingMatrix(5000, 9)
	queries := data[:calibrationQueries*encode.Dim]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExactTopK(data, encode.Dim, queries, calibrationK)
	}
}

// The dense reference's cost on the same shape, for comparison.
func BenchmarkExactTopKDense(b *testing.B) {
	data := embeddingMatrix(5000, 9)
	for i := 0; i < b.N; i++ {
		linalg.ParallelFor(calibrationQueries, func(lo, hi int) {
			for q := lo; q < hi; q++ {
				exactTopK(data, encode.Dim, rowOf(data, encode.Dim, q), calibrationK)
			}
		})
	}
}

// BenchmarkCalibrateNProbe is the calibration alone on the embedding
// shape of BenchmarkBuild, and the ladder it replaced on the same index.
func BenchmarkCalibrateNProbe(b *testing.B) {
	data := embeddingMatrix(5000, 9)
	ix, err := Build(data, encode.Dim, Config{NProbe: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  func(*Index, uint64) int
	}{{"walk", (*Index).calibrateNProbe}, {"reference", referenceNProbe}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.run(ix, 7)
			}
		})
	}
}
