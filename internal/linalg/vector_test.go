package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotKnownValues(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Errorf("Dot = %g, want 35", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil,nil) = %g, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNorm2AndNormalize(t *testing.T) {
	v := []float32{3, 4}
	if got := Norm2(v); got != 5 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	Normalize(v)
	if got := Norm2(v); math.Abs(got-1) > 1e-6 {
		t.Errorf("normalized norm = %g", got)
	}
	zero := []float32{0, 0, 0}
	Normalize(zero) // must not NaN
	for _, x := range zero {
		if x != 0 {
			t.Errorf("zero vector changed by Normalize: %v", zero)
		}
	}
}

// TestSqEuclideanMatchesMinkowski2 checks SqEuclidean against the
// order-2 Minkowski distance written out in float64.
func TestSqEuclideanMatchesMinkowski2(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(raw[i]) / 16
			b[i] = float32(raw[n+i]) / 16
		}
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(float64(a[i])-float64(b[i])), 2)
		}
		return math.Abs(math.Sqrt(SqEuclidean(a, b))-math.Sqrt(s)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceAxioms(t *testing.T) {
	// Identity, symmetry and the triangle inequality of the Euclidean
	// distance.
	f := func(raw []int8) bool {
		if len(raw) < 3 {
			return true
		}
		n := len(raw) / 3
		a := make([]float32, n)
		b := make([]float32, n)
		c := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(raw[i]) / 8
			b[i] = float32(raw[n+i]) / 8
			c[i] = float32(raw[2*n+i]) / 8
		}
		d := func(x, y []float32) float64 { return math.Sqrt(SqEuclidean(x, y)) }
		dab, dac, dcb := d(a, b), d(a, c), d(c, b)
		return d(a, a) == 0 && math.Abs(dab-d(b, a)) <= 1e-6 && dab <= dac+dcb+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxpyAndScale(t *testing.T) {
	y := []float32{1, 1, 1}
	Axpy(2, []float32{1, 2, 3}, y)
	want := []float32{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float32{1.5, 2.5, 3.5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Scale = %v, want %v", y, want)
		}
	}
}

func TestDotUnrollingTailSizes(t *testing.T) {
	// Exercise every remainder of the 4-way unrolled loop.
	for n := 0; n <= 9; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := 0; i < n; i++ {
			a[i] = float32(i + 1)
			b[i] = float32(2 * (i + 1))
			want += float64(a[i]) * float64(b[i])
		}
		if got := Dot(a, b); math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: Dot = %g, want %g", n, got, want)
		}
	}
}
