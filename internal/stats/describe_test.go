package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDescribeKnownValues(t *testing.T) {
	s := Describe([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("Describe basic stats wrong: %+v", s)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %g, want %g", s.Std, wantStd)
	}
	wantGeo := math.Pow(120, 0.2)
	if math.Abs(s.GeoMean-wantGeo) > 1e-12 {
		t.Errorf("GeoMean = %g, want %g", s.GeoMean, wantGeo)
	}
}

func TestDescribeEmptyAndNonPositive(t *testing.T) {
	if s := Describe(nil); s.N != 0 {
		t.Errorf("empty Describe N = %d", s.N)
	}
	s := Describe([]float64{-1, 1})
	if !math.IsNaN(s.GeoMean) {
		t.Errorf("GeoMean with non-positive values = %g, want NaN", s.GeoMean)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty sample should be NaN")
	}
}

func TestDescribeOrderInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := Describe(xs)
		rev := make([]float64, len(xs))
		for i, v := range xs {
			rev[len(xs)-1-i] = v
		}
		b := Describe(rev)
		return a.N == b.N && almostEq(a.Mean, b.Mean) && almostEq(a.Median, b.Median) &&
			a.Min == b.Min && a.Max == b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*(math.Abs(a)+math.Abs(b)+1)
}

func TestHistogramLinear(t *testing.T) {
	h, err := NewHistogram(0, 10, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1.9, 2, 5, 9.99} {
		h.Add(v)
	}
	h.Add(-1) // under
	h.Add(10) // over (right-open)
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", h.Under, h.Over)
	}
	want := []int{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
}

func TestHistogramLog(t *testing.T) {
	h, err := NewHistogram(1, 1000, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// Bins: [1,10), [10,100), [100,1000).
	for _, v := range []float64{1, 9.9, 10, 99, 100, 999} {
		h.Add(v)
	}
	for i, w := range []int{2, 2, 2} {
		if h.Counts[i] != w {
			t.Errorf("log bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0, false); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := NewHistogram(5, 5, 3, false); err == nil {
		t.Error("accepted max == min")
	}
	if _, err := NewHistogram(0, 10, 3, true); err == nil {
		t.Error("accepted log histogram with min == 0")
	}
}

func TestHistogramBinProperty(t *testing.T) {
	// Every in-range value lands in the bin whose edges bracket it.
	h, err := NewHistogram(0, 1, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint32) bool {
		v := float64(raw) / float64(math.MaxUint32) * 0.999999
		before := append([]int(nil), h.Counts...)
		h.Add(v)
		for i := range h.Counts {
			if h.Counts[i] != before[i] {
				return h.Edges[i] <= v && v < h.Edges[i+1]
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 2, 2, false)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	out := h.Render(10, func(lo, hi float64) string { return "bin" })
	if strings.Count(out, "\n") != 2 {
		t.Errorf("Render produced %d lines, want 2:\n%s", strings.Count(out, "\n"), out)
	}
	if !strings.Contains(out, "##########") {
		t.Errorf("fullest bin did not render a full-width bar:\n%s", out)
	}
}
