// Package linalg provides the small set of dense float32 vector kernels
// that the feature encoder and the KNN classifier are built on. All
// functions are allocation-free on the hot path.
package linalg

import "math"

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float32) float64 {
	checkLen(a, b)
	// Four-way unrolled accumulation: measurably faster than the naive
	// loop on the 384-dim embeddings KNN spends its time in, and keeps
	// partial sums independent for the CPU to pipeline.
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float32) float64 { return math.Sqrt(Dot(a, a)) }

// Normalize scales a in place to unit Euclidean norm. A zero vector is
// left untouched.
func Normalize(a []float32) {
	n := Norm2(a)
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range a {
		a[i] *= inv
	}
}

// SqEuclidean returns the squared Euclidean distance between a and b.
// KNN uses the squared form: it preserves ordering and skips the sqrt.
// It panics if lengths differ.
//
// The summation order is part of the contract: float64 differences,
// squares accumulated into two lanes (even indices, odd indices, an odd
// last element into the even lane), returned as even + odd, no fused
// multiply-add. sqEuclideanFrom below is that definition; the AVX2
// backend reproduces it operation for operation, so every build returns
// the same bits and an index calibrated by one serves under the other.
func SqEuclidean(a, b []float32) float64 {
	checkLen(a, b)
	return sqEuclidean(a, b)
}

// sqEuclideanFrom is the reference kernel, continuing from the lane
// sums (s0, s1) of an even-length prefix: the whole computation from
// (0, 0), or the tail after the vector kernel.
func sqEuclideanFrom(a, b []float32, s0, s1 float64) float64 {
	n := len(a)
	i := 0
	for ; i+2 <= n; i += 2 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		// The conversions forbid fusing the square into the add (the
		// compiler may otherwise, on arm64 or GOAMD64=v3), which would
		// round once where the contract rounds twice.
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
	}
	if i < n {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	return s0 + s1
}

// SqEuclideanRows writes the squared Euclidean distance from q to each
// row of the contiguous row-major matrix mat (len(out) rows of len(q)
// components) into out; out[r] has exactly the bits of
// SqEuclidean(q, row r). One row's sum is a dependent chain of adds, so
// the vector backend interleaves the chains of several rows — the form
// to use wherever the rows are already adjacent in memory. It panics if
// len(mat) != len(out)*len(q).
func SqEuclideanRows(q, mat []float32, out []float64) {
	if len(mat) != len(out)*len(q) {
		panic("linalg: matrix shape mismatch")
	}
	sqEuclideanRows(q, mat, out)
}

// sqEuclideanRowsEach is SqEuclideanRows one row at a time.
func sqEuclideanRowsEach(q, mat []float32, out []float64) {
	dim := len(q)
	for r := range out {
		out[r] = sqEuclidean(q, mat[r*dim:(r+1)*dim])
	}
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float32, x, y []float32) {
	checkLen(x, y)
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies a by alpha in place.
func Scale(alpha float32, a []float32) {
	for i := range a {
		a[i] *= alpha
	}
}

func checkLen(a, b []float32) {
	if len(a) != len(b) {
		panic("linalg: vector length mismatch")
	}
}
