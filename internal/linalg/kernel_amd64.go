//go:build amd64 && !purego

package linalg

// AVX2 backend of the distance kernels (kernel_amd64.s), chosen
// once at package initialisation from what the CPU and the OS report.
// There is no switch: a machine either has the instructions or runs the
// Go reference, and both return the same bits.

// haveAVX2 is written once, before any kernel can run.
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 is usable: the CPU implements it
// (CPUID.7.0:EBX bit 5) and AVX (CPUID.1:ECX bit 28), and the OS saves
// the YMM state on a context switch (OSXSAVE, CPUID.1:ECX bit 27, with
// XCR0 bits 1 and 2 set).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// Kernel names the backend of the distance kernels in this process:
// "avx2" for the assembly kernels, "generic" for the Go reference (a CPU
// or OS without AVX2, a non-amd64 build, or the purego build tag).
func Kernel() string {
	if haveAVX2 {
		return "avx2"
	}
	return "generic"
}

// int8Block is the most bytes one sqDistInt8AVX2 call may take. The
// kernel sums in two registers of eight int32 lanes; a lane gains at
// most 2·255² = 130 050 per 16-byte step, so after the 4 096 steps each
// register takes of a block a lane holds at most 532 684 800 and the
// two registers together 1 065 369 600 < 2³¹.
const int8Block = 1 << 17

func sqDistInt8(a, b []int8) int64 {
	if !haveAVX2 {
		return sqDistInt8Generic(a, b)
	}
	var s int64
	for len(a) >= 16 {
		m := min(len(a)&^15, int8Block)
		s += sqDistInt8AVX2(a[:m], b[:m])
		a, b = a[m:], b[m:]
	}
	return s + sqDistInt8Generic(a, b)
}

func sqEuclidean(a, b []float32) float64 {
	if !haveAVX2 {
		return sqEuclideanFrom(a, b, 0, 0)
	}
	s0, s1 := sqEuclideanAVX2(a, b)
	done := len(a) &^ 3
	return sqEuclideanFrom(a[done:], b[done:], s0, s1)
}

func sqEuclideanRows(q, mat []float32, out []float64) {
	dim := len(q)
	if !haveAVX2 || dim == 0 || dim%4 != 0 {
		sqEuclideanRowsEach(q, mat, out)
		return
	}
	rows := len(out) &^ 3
	sqEuclideanRows4AVX2(q, mat[:rows*dim], out[:rows])
	sqEuclideanRowsEach(q, mat[rows*dim:], out[rows:])
}

func dotInt8Rows(q []int16, rows []int8, out []int32) {
	dim := len(q)
	done := dim &^ 15
	if !haveAVX2 || done == 0 {
		dotInt8RowsGeneric(q, rows, out)
		return
	}
	dotInt8RowsAVX2(q[:done], rows, dim, out)
	if done == dim {
		return
	}
	for r := range out {
		out[r] += dotInt8(q[done:], rows[r*dim+done:(r+1)*dim])
	}
}

func sparseSqDistCols(norms []float64, idx []int32, val []float64, table, out []float64) {
	stride, done := len(out), 0
	if haveAVX2 {
		done = stride &^ 15
	}
	if done > 0 {
		sparseSqDistCols16AVX2(norms[:done], idx, val, table, stride, out[:done])
	}
	if done < stride {
		// A table of no rows (and so no nonzeros) has no columns to skip.
		sparseSqDistColsGeneric(norms[done:], idx, val, table[min(done, len(table)):], stride, out[done:])
	}
}

// sqDistInt8AVX2 returns Σ(a[i]-b[i])² over the first len(a)&^15
// elements; len(a) ≤ int8Block, len(b) ≥ len(a).
//
//go:noescape
func sqDistInt8AVX2(a, b []int8) int64

// sqEuclideanAVX2 returns the even-index and odd-index lane sums of
// (a[i]-b[i])² over the first len(a)&^3 elements, accumulated in the
// reference's order; len(b) ≥ len(a).
//
//go:noescape
func sqEuclideanAVX2(a, b []float32) (s0, s1 float64)

// sqEuclideanRows4AVX2 is SqEuclideanRows for len(q) a positive
// multiple of 4 and len(out) a multiple of 4, four rows at a time.
//
//go:noescape
func sqEuclideanRows4AVX2(q, mat []float32, out []float64)

// dotInt8RowsAVX2 writes into out[r] the dot product of q with the
// first len(q) codes of the row that starts at rows[r*stride]; len(q) is
// a positive multiple of 16 and at most stride, and rows holds
// len(out)*stride codes.
//
//go:noescape
func dotInt8RowsAVX2(q []int16, rows []int8, stride int, out []int32)

// sparseSqDistCols16AVX2 is SparseSqDistCols over the first len(out)
// columns of a table whose rows start stride entries apart; len(out) is
// a positive multiple of 16 and at most stride, and every idx[j] is a
// row of the table.
//
//go:noescape
func sparseSqDistCols16AVX2(norms []float64, idx []int32, val []float64, table []float64, stride int, out []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
