package ivf

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/stats"
)

// randMatrix builds n rows of dim float32s with values in [-r, r],
// deterministic in seed.
func randMatrix(n, dim int, r float64, seed uint64) []float32 {
	rng := stats.NewRNG(seed)
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32((rng.Float64()*2 - 1) * r)
	}
	return data
}

// bruteTopK is the reference: exact float32 scan, ties broken by lower
// row id (matching the index's stable bounded insertion).
func bruteTopK(data []float32, dim int, q []float32, k int) []ml.Candidate {
	n := len(data) / dim
	out := make([]ml.Candidate, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ml.Candidate{ID: i, Dist: linalg.SqEuclidean(q, data[i*dim:(i+1)*dim])})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

func TestBuildRejectsBadArgs(t *testing.T) {
	if _, err := Build(nil, 4, Config{}); err == nil {
		t.Fatal("Build(nil) succeeded")
	}
	if _, err := Build(make([]float32, 10), 4, Config{}); err == nil {
		t.Fatal("Build with length not a multiple of dim succeeded")
	}
	if _, err := Build(make([]float32, 8), 0, Config{}); err == nil {
		t.Fatal("Build with dim 0 succeeded")
	}
	// Load refuses such an index: built, it could be saved and never restored.
	if _, err := Build(make([]float32, maxDim+1), maxDim+1, Config{}); err == nil {
		t.Fatal("Build with dim over maxDim succeeded")
	}
}

// TestSearchExactWhenFullProbe pins the exactness limit: probing every
// cluster with a rerank pool covering the whole matrix must return
// exactly the brute-force top-k (same ids, same distances).
func TestSearchExactWhenFullProbe(t *testing.T) {
	const n, dim, k = 300, 12, 7
	data := randMatrix(n, dim, 5, 1)
	ix, err := Build(data, dim, Config{NClusters: 16, NProbe: 16, Rerank: n, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var dst []ml.Candidate
	for qi := 0; qi < 50; qi++ {
		q := randMatrix(1, dim, 5, uint64(100+qi))
		dst = ix.Search(q, k, dst)
		want := bruteTopK(data, dim, q, k)
		if len(dst) != len(want) {
			t.Fatalf("query %d: got %d hits, want %d", qi, len(dst), len(want))
		}
		for i := range want {
			if dst[i].ID != want[i].ID || dst[i].Dist != want[i].Dist {
				t.Fatalf("query %d hit %d: got %+v, want %+v", qi, i, dst[i], want[i])
			}
		}
	}
}

// TestSearchRecallDefaults checks the approximate regime: default knobs
// on clustered data must stay above the 0.95 recall gate the bench
// enforces end to end.
func TestSearchRecallDefaults(t *testing.T) {
	const n, dim, k = 2000, 16, 5
	// Clustered data: 20 well-separated centers with small jitter.
	data := clusteredMatrix(n, 20, dim, 50, 7)
	ix, err := Build(data, dim, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var hits, total int
	var dst []ml.Candidate
	for qi := 0; qi < 100; qi++ {
		q := data[(qi*17%n)*dim : (qi*17%n+1)*dim]
		dst = ix.Search(q, k, dst)
		want := bruteTopK(data, dim, q, k)
		ids := map[int]bool{}
		for _, c := range dst {
			ids[c.ID] = true
		}
		for _, w := range want {
			total++
			if ids[w.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.95 {
		t.Fatalf("recall %.3f < 0.95 at default knobs", recall)
	}
}

func TestSearchSortedAndBounded(t *testing.T) {
	const n, dim = 500, 8
	data := randMatrix(n, dim, 3, 11)
	ix, err := Build(data, dim, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := randMatrix(1, dim, 3, 99)
	for _, k := range []int{0, 1, 3, n, n + 50} {
		got := ix.Search(q, k, nil)
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if wantLen > 0 && len(got) == 0 {
			t.Fatalf("k=%d: empty result", k)
		}
		if len(got) > wantLen {
			t.Fatalf("k=%d: %d hits exceeds bound %d", k, len(got), wantLen)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("k=%d: result not sorted at %d", k, i)
			}
		}
	}
}

func TestBuildClampsNProbe(t *testing.T) {
	data := randMatrix(64, 4, 1, 5)
	ix, err := Build(data, 4, Config{NClusters: 8, NProbe: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NProbe() != ix.Clusters() {
		t.Fatalf("NProbe of a Build asked for 1000 = %d, want %d", ix.NProbe(), ix.Clusters())
	}
}

func TestStatsAndTotalsAdvance(t *testing.T) {
	data := randMatrix(200, 6, 2, 13)
	ix, err := Build(data, 6, Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	p0, r0, s0 := TotalProbes(), TotalReranked(), ix.Stats().Scanned
	q := data[:6]
	ix.Search(q, 3, nil)
	if TotalProbes() <= p0 || TotalReranked() <= r0 || ix.Stats().Scanned <= s0 {
		t.Fatal("package totals did not advance")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	const n, dim = 150, 10
	data := randMatrix(n, dim, 4, 21)
	ix, err := Build(data, dim, Config{NClusters: 9, NProbe: 3, Rerank: 17, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	sect, err := ix.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(sect[:6]) != "prefix" || len(sect)-6 != ix.EncodedLen() {
		t.Fatalf("AppendBinary appended %d bytes after its prefix, EncodedLen says %d", len(sect)-6, ix.EncodedLen())
	}
	sect = sect[6:]
	// The section's bytes as the commit before the codes went cell-major
	// wrote them (FNV-64a, recorded there): the layout in memory is not
	// the layout on disk.
	h := fnv.New64a()
	h.Write(sect)
	if got, want := h.Sum64(), uint64(0x3b427954371216f1); got != want {
		t.Fatalf("index section hashes to %#x, want %#x: the wire format moved", got, want)
	}
	got, err := Load(bytes.NewReader(sect), data, dim)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clusters() != ix.Clusters() || got.NProbe() != ix.NProbe() || got.Rerank() != ix.Rerank() {
		t.Fatalf("round-trip mismatch: %d/%d/%d vs %d/%d/%d",
			got.Clusters(), got.NProbe(), got.Rerank(), ix.Clusters(), ix.NProbe(), ix.Rerank())
	}
	// Re-marshaling must be bit-identical.
	if again, _ := got.AppendBinary(nil); !bytes.Equal(sect, again) {
		t.Fatal("second marshal differs from first")
	}
	// And the loaded index must answer queries identically.
	for qi := 0; qi < 256; qi++ {
		q := randMatrix(1, dim, 4, uint64(200+qi))
		a := ix.Search(q, 4, nil)
		b := got.Search(q, 4, nil)
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d hit %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestLoadRejectsCorruptSections mutates every header field and
// structural invariant; each must yield ErrCorruptIndex, never a panic.
func TestLoadRejectsCorruptSections(t *testing.T) {
	const n, dim = 60, 5
	data := randMatrix(n, dim, 2, 31)
	ix, err := Build(data, dim, Config{NClusters: 6, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := ix.AppendBinary(nil)

	load := func(b []byte) error {
		_, err := Load(bytes.NewReader(b), data, dim)
		return err
	}
	if err := load(good); err != nil {
		t.Fatalf("pristine section rejected: %v", err)
	}

	mutate := func(name string, off int, val []byte) {
		b := append([]byte(nil), good...)
		copy(b[off:], val)
		if err := load(b); err == nil {
			t.Errorf("%s: corrupt section accepted", name)
		} else if !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: error %v is not ErrCorruptIndex", name, err)
		}
	}
	mutate("nclusters zero", 0, []byte{0, 0, 0, 0})
	mutate("nclusters huge", 0, []byte{0xff, 0xff, 0xff, 0x7f})
	mutate("nprobe zero", 4, []byte{0, 0, 0, 0})
	mutate("nprobe over clusters", 4, []byte{0x7f, 0, 0, 0})
	mutate("rerank zero", 8, []byte{0, 0, 0, 0})
	mutate("scale NaN", 12, []byte{0, 0, 0xc0, 0x7f})
	// First centroid component → NaN.
	mutate("centroid NaN", 16, []byte{0, 0, 0xc0, 0x7f})
	// starts[0] lives right after the centroid matrix.
	startsOff := 16 + ix.Clusters()*dim*4
	mutate("starts[0] nonzero", startsOff, []byte{1, 0, 0, 0})
	// First member id → out of range.
	memberOff := startsOff + (ix.Clusters()+1)*4
	mutate("member id out of range", memberOff, []byte{0xff, 0xff, 0xff, 0x7f})
	// Duplicate member id: copy member[1] over member[0].
	dup := append([]byte(nil), good...)
	copy(dup[memberOff:memberOff+4], dup[memberOff+4:memberOff+8])
	if err := load(dup); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("duplicate member id: got %v", err)
	}

	for _, cut := range []int{0, 3, 15, startsOff - 1, memberOff + 2, len(good) - 1} {
		if err := load(good[:cut]); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("truncation at %d: got %v", cut, err)
		}
	}
	if err := load(nil); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("empty section: got %v", err)
	}
}

func TestLoadRejectsBadMatrix(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil), make([]float32, 10), 3); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("len%%dim != 0: got %v", err)
	}
	if _, err := Load(bytes.NewReader(nil), make([]float32, 8), maxDim+1); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("dim over cap: got %v", err)
	}
}

// TestQuantizationErrorBound checks the documented bound end to end on
// the built index: scale²·SqDistInt8 stays within √dim·scale of the
// exact distance (in the metric's square-root domain).
func TestQuantizationErrorBound(t *testing.T) {
	const n, dim = 100, 24
	data := randMatrix(n, dim, 10, 41)
	ix, err := Build(data, dim, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Sqrt(float64(dim)) * float64(ix.scale)
	qq := make([]int8, dim)
	pos := positions(ix)
	for i := 0; i < n; i++ {
		linalg.QuantizeInt8(qq, data[i*dim:(i+1)*dim], ix.scale)
		for j := 0; j < n; j += 7 {
			approx := float64(ix.scale) * float64(ix.scale) *
				float64(linalg.SqDistInt8(qq, ix.codes[pos[j]*dim:(pos[j]+1)*dim]))
			exact := linalg.SqEuclidean(data[i*dim:(i+1)*dim], data[j*dim:(j+1)*dim])
			if diff := math.Abs(math.Sqrt(approx) - math.Sqrt(exact)); diff > bound+1e-6 {
				t.Fatalf("rows %d,%d: |√approx−√exact| = %g exceeds bound %g", i, j, diff, bound)
			}
		}
	}
}

// positions inverts ix.member: where in the cell-major codes and norms
// each row of the matrix sits.
func positions(ix *Index) []int {
	pos := make([]int, ix.n)
	for p, row := range ix.member {
		pos[row] = p
	}
	return pos
}

// clusteredMatrix is n rows scattered around centres points (unit
// normal jitter on coordinates in [-r, r]): the shape of the job
// encodings, where uniform noise makes every cell equally far and
// calibration probes nearly all of them.
func clusteredMatrix(n, centres, dim int, r float64, seed uint64) []float32 {
	rng := stats.NewRNG(seed)
	cs := randMatrix(centres, dim, r, seed+1)
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		c := rng.Intn(centres)
		for d := 0; d < dim; d++ {
			data[i*dim+d] = cs[c*dim+d] + float32(rng.Norm())
		}
	}
	return data
}

// TestCodesAreCellMajor pins the layout the scan relies on, on a built
// index and on the one loaded from its bytes: position p holds the code
// of row member[p] and norms[p] is that code's Σ c².
func TestCodesAreCellMajor(t *testing.T) {
	const n, dim = 400, 21
	data := clusteredMatrix(n, 12, dim, 20, 61)
	built, err := Build(data, dim, Config{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	sect, _ := built.AppendBinary(nil)
	loaded, err := Load(bytes.NewReader(sect), data, dim)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int8, dim)
	for name, ix := range map[string]*Index{"built": built, "loaded": loaded} {
		if len(ix.codes) != n*dim || len(ix.norms) != n {
			t.Fatalf("%s: %d codes and %d norms for %d×%d", name, len(ix.codes), len(ix.norms), n, dim)
		}
		for p, row := range ix.member {
			linalg.QuantizeInt8(want, data[int(row)*dim:(int(row)+1)*dim], ix.scale)
			var norm int32
			for i, c := range ix.codes[p*dim : (p+1)*dim] {
				if c != want[i] {
					t.Fatalf("%s: position %d (row %d) component %d is %d, the row quantizes to %d", name, p, row, i, c, want[i])
				}
				norm += int32(c) * int32(c)
			}
			if ix.norms[p] != norm {
				t.Fatalf("%s: norms[%d] = %d, the code's Σc² is %d", name, p, ix.norms[p], norm)
			}
		}
	}
}

// TestScanMatchesSqDistInt8 recomputes the distance of every row a scan
// visits with linalg.SqDistInt8 on codes quantized here from the matrix:
// with a pool as large as the index every scanned row is a candidate, so
// the expanded form Σq² + Σx² − 2·q·x is checked row for row, on a dim
// that leaves the vector kernel a tail (the golden test's 50) and on the
// served 384.
func TestScanMatchesSqDistInt8(t *testing.T) {
	for _, shape := range []struct{ n, dim int }{{1200, 50}, {700, 384}} {
		n, dim := shape.n, shape.dim
		data := clusteredMatrix(n, 25, dim, 8, uint64(dim))
		ix, err := Build(data, dim, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		queries := randMatrix(64, dim, 8, uint64(n))
		copy(queries, data[:32*dim]) // half of them indexed rows: distance 0 to their own code
		b := ix.newSearchBuf()
		qq, code := make([]int8, dim), make([]int8, dim)
		for qi := 0; qi < 64; qi++ {
			q := queries[qi*dim : (qi+1)*dim]
			nprobe := 1 + qi%ix.Clusters()
			linalg.SqEuclideanRows(q, ix.cents, b.cdist)
			b.selectNearestClusters(b.cdist, nprobe)
			probed, scanned := ix.scan(b, q, n, n, nprobe)
			if probed < 1 || probed > nprobe || scanned != len(b.cand) {
				t.Fatalf("dim %d query %d: probed %d of %d, scanned %d, %d candidates", dim, qi, probed, nprobe, scanned, len(b.cand))
			}
			linalg.QuantizeInt8(qq, q, ix.scale)
			for i, c := range b.cand {
				linalg.QuantizeInt8(code, data[int(c.id)*dim:(int(c.id)+1)*dim], ix.scale)
				if want := linalg.SqDistInt8(qq, code); c.dist != want {
					t.Fatalf("dim %d query %d row %d: scanned distance %d, SqDistInt8 %d", dim, qi, c.id, c.dist, want)
				}
				if i > 0 && b.cand[i-1].dist > c.dist {
					t.Fatalf("dim %d query %d: pool out of order at %d", dim, qi, i)
				}
			}
		}
	}
}

// BenchmarkSearch runs on a matrix shaped like the served index of
// qsub_knn_s30 — ≈ 5 000 groups around ≈ 150 centres, dim 384, ≈ 140
// cells of which 30 are probed — queried with rows of its own: the
// two-second proxy for the benchmark's ivf.search_p50_us. The probe
// width is the served index's calibrated one, set here because on
// synthetic centres calibration flips from 1 cell to nearly all of them
// within a tenth of the centre spread, and a comparison of two commits
// needs the same rows scanned on both sides.
func BenchmarkSearch(b *testing.B) {
	const n, centres, dim, k = 5000, 150, 384, 5
	data := clusteredMatrix(n, centres, dim, 1, 51)
	ix, err := Build(data, dim, Config{NProbe: 30, Seed: 52})
	if err != nil {
		b.Fatal(err)
	}
	var dst []ml.Candidate
	b.ReportAllocs()
	s0 := ix.Stats().Scanned
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i * 7919 % n
		dst = ix.Search(data[row*dim:(row+1)*dim], k, dst)
	}
	rows := float64(ix.Stats().Scanned-s0) / float64(b.N)
	b.ReportMetric(rows, "rows/op")
	b.ReportMetric(rows*dim, "code-B/op")
}
