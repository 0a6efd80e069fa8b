package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantizeInt8Clamp(t *testing.T) {
	src := []float32{0, 1, -1, 127, -127, 200, -200, 0.4, -0.4, 0.6}
	dst := make([]int8, len(src))
	QuantizeInt8(dst, src, 1)
	want := []int8{0, 1, -1, 127, -127, 127, -127, 0, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestQuantizeInt8ZeroScale(t *testing.T) {
	src := []float32{1, -2, 3}
	dst := []int8{9, 9, 9}
	QuantizeInt8(dst, src, 0)
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %d, want 0 under zero scale", i, v)
		}
	}
}

func TestSqDistInt8Known(t *testing.T) {
	a := []int8{1, 2, 3, -4, 5}
	b := []int8{-1, 2, 0, 4, 5}
	// diffs: 2, 0, 3, -8, 0 → 4 + 9 + 64 = 77
	if got := SqDistInt8(a, b); got != 77 {
		t.Fatalf("SqDistInt8 = %d, want 77", got)
	}
	if got := SqDistInt8(a, a); got != 0 {
		t.Fatalf("self distance = %d, want 0", got)
	}
}

// TestSqDistInt8MatchesFloat pins the quantized distance against the
// float32 kernel: quantize both vectors, then scale²·SqDistInt8 must be
// within the scalar-quantization error bound of the exact distance.
func TestSqDistInt8MatchesFloat(t *testing.T) {
	check := func(av, bv []float32) bool {
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		av, bv = av[:n], bv[:n]
		for _, v := range append(append([]float32{}, av...), bv...) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		m := MaxAbs32(av)
		if mb := MaxAbs32(bv); mb > m {
			m = mb
		}
		scale := m / 127
		qa, qb := make([]int8, n), make([]int8, n)
		QuantizeInt8(qa, av, scale)
		QuantizeInt8(qb, bv, scale)
		approx := float64(scale) * float64(scale) * float64(SqDistInt8(qa, qb))
		exact := SqEuclidean(av, bv)
		// Per-dim error ≤ scale/2 each side ⇒ |√approx − √exact| ≤ √n·scale.
		bound := math.Sqrt(float64(n)) * float64(scale)
		return math.Abs(math.Sqrt(approx)-math.Sqrt(exact)) <= bound+1e-6
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(a, b []float32) bool {
		// Bound magnitudes: quick generates extreme float32s whose
		// squares overflow float64 precision meaninglessly.
		for i := range a {
			a[i] = float32(math.Mod(float64(a[i]), 1e3))
		}
		for i := range b {
			b[i] = float32(math.Mod(float64(b[i]), 1e3))
		}
		return check(a, b)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs32(t *testing.T) {
	if got := MaxAbs32(nil); got != 0 {
		t.Fatalf("MaxAbs32(nil) = %v", got)
	}
	if got := MaxAbs32([]float32{-3, 2, 1}); got != 3 {
		t.Fatalf("MaxAbs32 = %v, want 3", got)
	}
}
