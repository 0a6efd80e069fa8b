package linalg

import (
	"fmt"
	"math"
	"testing"

	"mcbound/internal/stats"
)

// The tests in this file compare the exported distance kernels — the
// AVX2 backend where Kernel() says "avx2" — against the Go reference
// (sqDistInt8Generic, dotInt8RowsGeneric, sqEuclideanFrom) on the same
// inputs. Under -tags purego, off amd64 or on a CPU without AVX2 both
// sides are the reference and the tests check only the Rows bookkeeping.

func TestKernelName(t *testing.T) {
	k := Kernel()
	if k != "avx2" && k != "generic" {
		t.Fatalf("Kernel() = %q, want avx2 or generic", k)
	}
	t.Logf("linalg kernel: %s", k)
}

func randInt8s(rng *stats.RNG, n int) []int8 {
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(rng.Uint64())
	}
	return v
}

// widen is the query side of DotInt8Rows: int8 codes as int16.
func widen(codes []int8) []int16 {
	w := make([]int16, len(codes))
	for i, c := range codes {
		w[i] = int16(c)
	}
	return w
}

// checkDotRows compares DotInt8Rows over len(rows)/len(q) rows against
// the reference and, where the sums cannot wrap (q holds codes, the rows
// are no longer than maxExactDotDim), against the identity the index
// scans by: Σq² + Σx² − 2·dot is SqDistInt8 of the same pair.
func checkDotRows(t testing.TB, q []int16, rows []int8) {
	t.Helper()
	dim, n := len(q), 0
	if dim > 0 {
		n = len(rows) / dim
	}
	got, want := make([]int32, n), make([]int32, n)
	DotInt8Rows(q, rows, got)
	dotInt8RowsGeneric(q, rows, want)
	qq, qn, exact := make([]int8, dim), int64(0), dim <= maxExactDotDim
	for i, v := range q {
		qq[i] = int8(v)
		qn += int64(v) * int64(v)
		exact = exact && int16(qq[i]) == v
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("DotInt8Rows %dx%d row %d: %d, reference %d", n, dim, r, got[r], want[r])
		}
		if !exact {
			continue
		}
		row, xn := rows[r*dim:(r+1)*dim], int64(0)
		for _, c := range row {
			xn += int64(c) * int64(c)
		}
		if d, sq := qn+xn-2*int64(got[r]), sqDistInt8Generic(qq, row); d != sq {
			t.Fatalf("DotInt8Rows %dx%d row %d: expanded distance %d, SqDistInt8 %d", n, dim, r, d, sq)
		}
	}
}

// maxExactDotDim is the longest row whose dot product cannot wrap
// (ivf's maxDim; see DotInt8Rows).
const maxExactDotDim = 1 << 16

// randFloat32s draws components of mixed magnitude so sums round.
func randFloat32s(rng *stats.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		u := rng.Uint64()
		v[i] = (float32(u>>40)/(1<<23) - 1) * float32(math.Pow(10, float64(u%7)-3))
	}
	return v
}

// sameBits is the float contract: identical bits, any NaN equal to any
// NaN (the payload of a propagated NaN is the one thing the reference
// leaves to the instruction selection).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkFloatKernels compares SqEuclidean and SqEuclideanRows (the latter
// over rows copies of b, some perturbed) against the reference.
func checkFloatKernels(t testing.TB, a, b []float32, rows int) {
	t.Helper()
	want := sqEuclideanFrom(a, b, 0, 0)
	if got := SqEuclidean(a, b); !sameBits(got, want) {
		t.Fatalf("SqEuclidean len %d: %x (%g), reference %x (%g)", len(a),
			math.Float64bits(got), got, math.Float64bits(want), want)
	}
	dim := len(a)
	mat := make([]float32, rows*dim)
	for r := 0; r < rows; r++ {
		row := mat[r*dim : (r+1)*dim]
		copy(row, b)
		if r > 0 && dim > 0 {
			row[r%dim] += float32(r) // distinct rows, so a row mix-up shows
		}
	}
	out := make([]float64, rows)
	SqEuclideanRows(a, mat, out)
	for r := range out {
		want := sqEuclideanFrom(a, mat[r*dim:(r+1)*dim], 0, 0)
		if !sameBits(out[r], want) {
			t.Fatalf("SqEuclideanRows %dx%d row %d: %x (%g), reference %x (%g)", rows, dim, r,
				math.Float64bits(out[r]), out[r], math.Float64bits(want), want)
		}
	}
}

func TestKernelsEveryLength(t *testing.T) {
	rng := stats.NewRNG(1)
	for n := 0; n <= 800; n++ {
		a, b := randInt8s(rng, n), randInt8s(rng, n)
		if got, want := SqDistInt8(a, b), sqDistInt8Generic(a, b); got != want {
			t.Fatalf("SqDistInt8 len %d: %d, reference %d", n, got, want)
		}
		checkFloatKernels(t, randFloat32s(rng, n), randFloat32s(rng, n), 1+n%9)
		for rows := 0; rows <= 9; rows++ {
			checkDotRows(t, widen(randInt8s(rng, n)), randInt8s(rng, rows*n))
		}
	}
}

// TestKernelsUnalignedSubSlices runs the kernels on slices that start
// 1 and 3 elements into their arrays and end exactly at the end of an
// allocation of their own, at the lengths around the vector steps.
func TestKernelsUnalignedSubSlices(t *testing.T) {
	rng := stats.NewRNG(2)
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 383, 384, 385} {
		ai, bi := randInt8s(rng, n+1)[1:], randInt8s(rng, n+3)[3:]
		if got, want := SqDistInt8(ai, bi), sqDistInt8Generic(ai, bi); got != want {
			t.Fatalf("SqDistInt8 unaligned len %d: %d, reference %d", n, got, want)
		}
		checkFloatKernels(t, randFloat32s(rng, n+1)[1:], randFloat32s(rng, n+3)[3:], 5)
		checkDotRows(t, widen(randInt8s(rng, n+1))[1:], randInt8s(rng, 5*n+3)[3:])
	}
}

// TestSqDistInt8ExtremeCodes puts the largest difference, 127 against
// -128, at every position of vectors around the step sizes, and fills
// whole vectors with it.
func TestSqDistInt8ExtremeCodes(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 33, 384, 385} {
		for pos := 0; pos < n; pos++ {
			a, b := make([]int8, n), make([]int8, n)
			a[pos], b[pos] = 127, -128
			if got := SqDistInt8(a, b); got != 255*255 {
				t.Fatalf("len %d pos %d: %d, want %d", n, pos, got, 255*255)
			}
			if got := SqDistInt8(b, a); got != 255*255 {
				t.Fatalf("len %d pos %d swapped: %d, want %d", n, pos, got, 255*255)
			}
		}
		a, b := make([]int8, n), make([]int8, n)
		for i := range a {
			a[i], b[i] = 127, -128
		}
		if got, want := SqDistInt8(a, b), int64(n)*255*255; got != want {
			t.Fatalf("len %d all extreme: %d, want %d", n, got, want)
		}
	}
}

// TestDotInt8RowsExtremeCodes puts each of the four extreme products at
// every position of a row between ordinary rows, around the step sizes,
// and fills whole rows with them.
func TestDotInt8RowsExtremeCodes(t *testing.T) {
	rng := stats.NewRNG(9)
	pairs := [][2]int8{{127, 127}, {127, -128}, {-128, 127}, {-128, -128}}
	for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 48, 384, 385} {
		for _, pr := range pairs {
			for pos := 0; pos < n; pos++ {
				q, rows := make([]int8, n), randInt8s(rng, 3*n)
				q[pos] = pr[0]
				row := rows[n : 2*n]
				clear(row)
				row[pos] = pr[1]
				out := make([]int32, 3)
				DotInt8Rows(widen(q), rows, out)
				if want := int32(pr[0]) * int32(pr[1]); out[1] != want {
					t.Fatalf("len %d pos %d codes %v: %d, want %d", n, pos, pr, out[1], want)
				}
				checkDotRows(t, widen(q), rows)
			}
			q, rows := make([]int8, n), make([]int8, 2*n)
			for i := range q {
				q[i], rows[i], rows[n+i] = pr[0], pr[1], -pr[1]-1
			}
			checkDotRows(t, widen(q), rows)
		}
	}
}

// TestDotInt8RowsAtMaxDim is the overflow bound of DotInt8Rows at its
// edge: rows of 65 536 codes, all −128 or all 127, against queries of
// the same. The largest sum, (−128)² · 2¹⁶ = 2³⁰, fits an int32 and so
// does every accumulator lane on the way.
func TestDotInt8RowsAtMaxDim(t *testing.T) {
	const dim = maxExactDotDim
	fill := func(c int8) []int8 {
		v := make([]int8, dim)
		for i := range v {
			v[i] = c
		}
		return v
	}
	rows := append(fill(-128), fill(127)...)
	for _, qc := range []int8{-128, 127} {
		out := make([]int32, 2)
		DotInt8Rows(widen(fill(qc)), rows, out)
		for r, xc := range []int8{-128, 127} {
			if want := int64(qc) * int64(xc) * dim; int64(out[r]) != want {
				t.Fatalf("query %d row %d: %d, want %d", qc, xc, out[r], want)
			}
		}
		checkDotRows(t, widen(fill(qc)), rows)
	}
}

// TestSqDistInt8PastInt32 sums 2²⁰ maximal squares — 6.8e10, thirty
// times what an int32 lane holds — and the same one element short of
// and past a vector step.
func TestSqDistInt8PastInt32(t *testing.T) {
	const n = 1 << 20
	a, b := make([]int8, n+1), make([]int8, n+1)
	for i := range a {
		a[i], b[i] = 127, -128
	}
	for _, m := range []int{n - 1, n, n + 1} {
		if got, want := SqDistInt8(a[:m], b[:m]), int64(m)*255*255; got != want {
			t.Fatalf("len %d: %d, want %d", m, got, want)
		}
	}
}

func TestSqEuclideanSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	denorm := math.Float32frombits(1)
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, denorm, -denorm, math.MaxFloat32, -math.MaxFloat32, inf, -inf, nan, 1, -1.5}
	rng := stats.NewRNG(3)
	for _, n := range []int{1, 3, 4, 7, 8, 17, 384} {
		for _, sa := range specials {
			for _, sb := range specials {
				a, b := randFloat32s(rng, n), randFloat32s(rng, n)
				pos := int(rng.Uint64() % uint64(n))
				a[pos], b[pos] = sa, sb
				checkFloatKernels(t, a, b, 6)
			}
		}
	}
	// All-zero and all-negative-zero inputs keep the sign of the sum.
	z, nz := make([]float32, 9), make([]float32, 9)
	for i := range nz {
		nz[i] = negZero
	}
	checkFloatKernels(t, z, nz, 4)
	checkFloatKernels(t, nz, nz, 4)
}

func TestSqEuclideanRowsShapes(t *testing.T) {
	rng := stats.NewRNG(4)
	for _, dim := range []int{0, 1, 3, 4, 5, 8, 384} {
		for rows := 0; rows <= 9; rows++ {
			checkFloatKernels(t, randFloat32s(rng, dim), randFloat32s(rng, dim), rows)
		}
	}
	checkFloatKernels(t, randFloat32s(rng, 384), randFloat32s(rng, 384), 142) // the centroid table
}

// checkSparseCols compares SparseSqDistCols against the reference on
// the sparse vector (idx, val) and a table of cols columns.
func checkSparseCols(t testing.TB, norms []float64, idx []int32, val, table []float64) {
	t.Helper()
	got, want := make([]float64, len(norms)), make([]float64, len(norms))
	SparseSqDistCols(norms, idx, val, table, got)
	sparseSqDistColsGeneric(norms, idx, val, table, len(want), want)
	for c := range want {
		if !sameBits(got[c], want[c]) {
			t.Fatalf("SparseSqDistCols %d nonzeros, %d columns, column %d: %x (%g), reference %x (%g)",
				len(idx), len(want), c, math.Float64bits(got[c]), got[c], math.Float64bits(want[c]), want[c])
		}
	}
}

// randSparse draws a table of rows×cols float32-valued entries, column
// norms, and a float32-valued vector with every third coordinate set.
func randSparse(rng *stats.RNG, rows, cols int) (norms []float64, idx []int32, val, table []float64) {
	table = make([]float64, rows*cols)
	for i, v := range randFloat32s(rng, rows*cols) {
		table[i] = float64(v)
	}
	norms = make([]float64, cols)
	for c := range norms {
		norms[c] = float64(randFloat32s(rng, 1)[0]) + 1
	}
	x := randFloat32s(rng, rows)
	for i := int(rng.Uint64() % 3); i < rows; i += 3 {
		idx, val = append(idx, int32(i)), append(val, float64(x[i]))
	}
	return norms, idx, val, table
}

// TestSparseSqDistColsShapes covers column counts on both sides of the
// forty-eight- and sixteen-column steps (the 142 and 700 cells of the
// s30 and scale-1 centroid tables among them), nonzeros out of
// coordinate order and repeated, a vector with none, and a table with
// no rows.
func TestSparseSqDistColsShapes(t *testing.T) {
	rng := stats.NewRNG(9)
	for _, cols := range []int{1, 4, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 96, 112, 142, 144, 700} {
		for _, rows := range []int{1, 2, 5, 96, 384} {
			norms, idx, val, table := randSparse(rng, rows, cols)
			checkSparseCols(t, norms, idx, val, table)
			checkSparseCols(t, norms, nil, nil, table)
			rev, rval := append([]int32(nil), idx...), append([]float64(nil), val...)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j], rval[i], rval[j] = rev[j], rev[i], rval[j], rval[i]
			}
			checkSparseCols(t, norms, append(rev, rev...), append(rval, rval...), table)
		}
		// A table of no rows: out is the norms.
		checkSparseCols(t, make([]float64, cols), nil, nil, nil)
	}
}

// TestSparseSqDistColsIsShiftedDistance pins what the filter computes:
// ‖x − col c‖² − ‖x‖², which SqEuclidean measures directly, up to the
// rounding of both sums.
func TestSparseSqDistColsIsShiftedDistance(t *testing.T) {
	const rows, cols = 50, 20
	rng := stats.NewRNG(10)
	_, idx, val, table := randSparse(rng, rows, cols)
	x, xx := make([]float32, rows), 0.0
	for j, i := range idx {
		x[i] = float32(val[j])
		xx += val[j] * val[j]
	}
	norms, col := make([]float64, cols), make([]float32, rows)
	for c := range norms {
		for i := range col {
			col[i] = float32(table[i*cols+c])
			norms[c] += table[i*cols+c] * table[i*cols+c]
		}
	}
	out := make([]float64, cols)
	SparseSqDistCols(norms, idx, val, table, out)
	for c := range out {
		for i := range col {
			col[i] = float32(table[i*cols+c])
		}
		if d := SqEuclidean(x, col); math.Abs(out[c]+xx-d) > 1e-9*(1+d) {
			t.Fatalf("column %d: filter %g + ‖x‖² %g, distance %g", c, out[c], xx, d)
		}
	}
}

func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}

// TestKernelLengthPanics pins the mismatch panics of the exported
// kernels at lengths that would otherwise reach the vector code.
func TestKernelLengthPanics(t *testing.T) {
	const msg = "linalg: vector length mismatch"
	mustPanicWith(t, msg, func() { SqDistInt8(make([]int8, 384), make([]int8, 383)) })
	mustPanicWith(t, msg, func() { SqDistInt8(make([]int8, 16), make([]int8, 32)) })
	mustPanicWith(t, msg, func() { SqEuclidean(make([]float32, 384), make([]float32, 380)) })
	mustPanicWith(t, msg, func() { SqEuclidean(make([]float32, 4), make([]float32, 8)) })
	const shape = "linalg: matrix shape mismatch"
	mustPanicWith(t, shape, func() { SqEuclideanRows(make([]float32, 4), make([]float32, 15), make([]float64, 4)) })
	mustPanicWith(t, shape, func() { SqEuclideanRows(make([]float32, 4), make([]float32, 16), make([]float64, 3)) })
	mustPanicWith(t, shape, func() { DotInt8Rows(make([]int16, 16), make([]int8, 63), make([]int32, 4)) })
	mustPanicWith(t, shape, func() { DotInt8Rows(make([]int16, 16), make([]int8, 64), make([]int32, 3)) })
	mustPanicWith(t, msg, func() { SparseSqDistCols(make([]float64, 16), nil, nil, make([]float64, 16), make([]float64, 15)) })
	mustPanicWith(t, msg, func() {
		SparseSqDistCols(make([]float64, 16), []int32{0}, nil, make([]float64, 16), make([]float64, 16))
	})
	mustPanicWith(t, shape, func() { SparseSqDistCols(make([]float64, 16), nil, nil, make([]float64, 40), make([]float64, 16)) })
	const coord = "linalg: coordinate out of range"
	mustPanicWith(t, coord, func() {
		SparseSqDistCols(make([]float64, 16), []int32{2}, []float64{1}, make([]float64, 32), make([]float64, 16))
	})
	mustPanicWith(t, coord, func() {
		SparseSqDistCols(make([]float64, 16), []int32{-1}, []float64{1}, make([]float64, 32), make([]float64, 16))
	})
}

func TestKernelsDoNotAllocate(t *testing.T) {
	rng := stats.NewRNG(5)
	qa, qb := randInt8s(rng, 384), randInt8s(rng, 384)
	a, b := randFloat32s(rng, 384), randFloat32s(rng, 384)
	mat, out := randFloat32s(rng, 142*384), make([]float64, 142)
	qw, cell, dots := widen(qa), randInt8s(rng, 36*384), make([]int32, 36)
	norms, idx, val, table := randSparse(rng, 384, 144)
	f := make([]float64, 144)
	if n := testing.AllocsPerRun(100, func() {
		sinkI += SqDistInt8(qa, qb)
		sinkF += SqEuclidean(a, b)
		SqEuclideanRows(a, mat, out)
		DotInt8Rows(qw, cell, dots)
		SparseSqDistCols(norms, idx, val, table, f)
	}); n != 0 {
		t.Fatalf("distance kernels allocate %v times per call", n)
	}
}

var (
	sinkI int64
	sinkF float64
)

// The benchmarks run at the serving shape (384-dim rows, the 142-cell
// centroid table and a 36-row mean cell of qsub_knn_s30). "/asm" is the
// exported kernel, skipped where it is the reference anyway; "/generic"
// is the reference.
func benchBackends(b *testing.B, asm, generic func()) {
	b.Run("asm", func(b *testing.B) {
		if Kernel() == "generic" {
			b.Skip("no vector backend in this build or on this CPU")
		}
		for i := 0; i < b.N; i++ {
			asm()
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			generic()
		}
	})
}

func BenchmarkSqDistInt8(b *testing.B) {
	rng := stats.NewRNG(6)
	x, y := randInt8s(rng, 384), randInt8s(rng, 384)
	b.Run("384", func(b *testing.B) {
		benchBackends(b,
			func() { sinkI += SqDistInt8(x, y) },
			func() { sinkI += sqDistInt8Generic(x, y) })
	})
}

func BenchmarkDotInt8Rows(b *testing.B) {
	const rows, dim = 36, 384
	rng := stats.NewRNG(10)
	q, cell, out := widen(randInt8s(rng, dim)), randInt8s(rng, rows*dim), make([]int32, rows)
	b.Run(fmt.Sprintf("%dx%d", rows, dim), func(b *testing.B) {
		benchBackends(b,
			func() { DotInt8Rows(q, cell, out) },
			func() { dotInt8RowsGeneric(q, cell, out) })
	})
}

func BenchmarkSqEuclidean(b *testing.B) {
	rng := stats.NewRNG(7)
	x, y := randFloat32s(rng, 384), randFloat32s(rng, 384)
	b.Run("384", func(b *testing.B) {
		benchBackends(b,
			func() { sinkF += SqEuclidean(x, y) },
			func() { sinkF += sqEuclideanFrom(x, y, 0, 0) })
	})
}

func BenchmarkSqEuclideanRows(b *testing.B) {
	const rows, dim = 142, 384
	rng := stats.NewRNG(8)
	q, mat, out := randFloat32s(rng, dim), randFloat32s(rng, rows*dim), make([]float64, rows)
	b.Run(fmt.Sprintf("%dx%d", rows, dim), func(b *testing.B) {
		benchBackends(b,
			func() { SqEuclideanRows(q, mat, out) },
			func() {
				for r := range out {
					out[r] = sqEuclideanFrom(q, mat[r*dim:(r+1)*dim], 0, 0)
				}
			})
	})
}

// BenchmarkSparseSqDistCols is the k-means filter at the s30 shape: an
// embedding of 128 nonzeros against the 142 centroids padded to 144.
func BenchmarkSparseSqDistCols(b *testing.B) {
	rng := stats.NewRNG(11)
	norms, idx, val, table := randSparse(rng, 384, 144)
	out := make([]float64, len(norms))
	b.Run(fmt.Sprintf("%dnz-384x144", len(idx)), func(b *testing.B) {
		benchBackends(b,
			func() { SparseSqDistCols(norms, idx, val, table, out) },
			func() { sparseSqDistColsGeneric(norms, idx, val, table, len(out), out) })
	})
}
