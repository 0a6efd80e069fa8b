package linalg

// int8 kernels for the scalar-quantized distance path of the IVF index:
// vectors are mapped to int8 codes with one symmetric scale per index
// (code = round(x/scale), clamped to [-127, 127]), and candidate scans
// run entirely in integer arithmetic — a quarter of the memory traffic
// of the float32 rows, which is what makes nprobe-bounded cluster scans
// cache-resident at large training-window sizes.

// MaxAbs32 returns the largest absolute component of a (0 for an empty
// vector). It is the quantization range: scale = MaxAbs32(data)/127.
func MaxAbs32(a []float32) float32 {
	var m float32
	for _, v := range a {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// QuantizeInt8 writes round(src[i]/scale) clamped to [-127, 127] into
// dst. A zero or negative scale maps everything to 0 (the degenerate
// all-zero matrix). It panics if lengths differ.
func QuantizeInt8(dst []int8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic("linalg: vector length mismatch")
	}
	if scale <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	inv := 1 / scale
	for i, v := range src {
		f := v * inv
		var q int32
		if f >= 0 {
			q = int32(f + 0.5)
		} else {
			q = int32(f - 0.5)
		}
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}

// SqDistInt8 returns the squared Euclidean distance between two int8
// code vectors in integer arithmetic. Multiplying by scale² recovers an
// approximation of the float32 squared distance. It panics if lengths
// differ.
//
// Nothing in the program scans with it any more: the IVF index measures
// a whole cell with DotInt8Rows and keeps this one as the definition its
// tests recompute every scanned distance against. It stays exported and
// vectorised only because benchmark/lab.go times it
// (linalg.sqdist_int8_ns); once the benchmark times the rows kernel
// instead (ROADMAP item 4) its assembly can go.
func SqDistInt8(a, b []int8) int64 {
	if len(a) != len(b) {
		panic("linalg: vector length mismatch")
	}
	return sqDistInt8(a, b)
}

// sqDistInt8Generic is the reference kernel, and the tail handler of
// the vector one (integer sums are exact in any order).
func sqDistInt8Generic(a, b []int8) int64 {
	// Per-component squares fit comfortably in int32 (≤ 255² = 65025);
	// accumulate in two independent int64 lanes so the CPU can pipeline.
	var s0, s1 int64
	n := len(a)
	i := 0
	for ; i+2 <= n; i += 2 {
		d0 := int32(a[i]) - int32(b[i])
		d1 := int32(a[i+1]) - int32(b[i+1])
		s0 += int64(d0 * d0)
		s1 += int64(d1 * d1)
	}
	if i < n {
		d := int32(a[i]) - int32(b[i])
		s0 += int64(d * d)
	}
	return s0 + s1
}

// DotInt8Rows writes the dot product of q with each row of the
// contiguous row-major code matrix rows (len(out) rows of len(q) codes)
// into out. q is a code vector widened once to int16 so that a scan of
// many rows sign-extends only the rows. With Σq² and a stored Σx² per
// row it gives the squared distance of SqDistInt8 without a
// subtraction per component: Σ(q−x)² = Σq² + Σx² − 2·Σq·x, an identity
// of integers, so exact — the same int64, not an approximation of it.
//
// Sums are int32 and wrap like Go's. They cannot when q holds widened
// int8 codes and len(q) ≤ 65 536 (the index's maxDim): codes lie in
// [−128, 127], so a product is at most 128·128 = 2¹⁴ in magnitude and
// a whole row's, or any subset's, at most 2¹⁶·2¹⁴ = 2³⁰ < 2³¹. It panics
// if len(rows) != len(out)*len(q).
func DotInt8Rows(q []int16, rows []int8, out []int32) {
	if len(rows) != len(out)*len(q) {
		panic("linalg: matrix shape mismatch")
	}
	dotInt8Rows(q, rows, out)
}

// dotInt8RowsGeneric is the reference kernel.
func dotInt8RowsGeneric(q []int16, rows []int8, out []int32) {
	dim := len(q)
	for r := range out {
		out[r] = dotInt8(q, rows[r*dim:(r+1)*dim])
	}
}

// dotInt8 is one row of the reference, and the tail handler of the
// vector kernel (wrapping integer sums are exact in any order).
func dotInt8(q []int16, x []int8) int32 {
	x = x[:len(q)]
	var s0, s1 int32
	i := 0
	for ; i+2 <= len(q); i += 2 {
		s0 += int32(q[i]) * int32(x[i])
		s1 += int32(q[i+1]) * int32(x[i+1])
	}
	if i < len(q) {
		s0 += int32(q[i]) * int32(x[i])
	}
	return s0 + s1
}
