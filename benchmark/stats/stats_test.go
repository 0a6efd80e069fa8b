package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		name   string
		sample []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"p50 of 1..10 is the 5th value", seq(10), 50, 5},
		{"p50 of 1..11 is the 6th value", seq(11), 50, 6},
		{"p99 of 1..100 is the 99th value", seq(100), 99, 99},
		{"p99 of 1..1000", seq(1000), 99, 990},
		{"p99.9 of 1..1000 rounds the rank up", seq(1000), 99.9, 999},
		{"p100 is the maximum", seq(10), 100, 10},
		{"p90 of 1..5 rounds up to the 5th", seq(5), 90, 5},
		{"tiny p clamps to the minimum", seq(5), 0.001, 1},
	}
	for _, c := range cases {
		if got := Percentile(c.sample, c.p); got != c.want {
			t.Errorf("%s: Percentile(p=%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

// The floor((n-1)·q) index this package replaces under-reports: on
// 1..150 it names the 148th value as p99 where nearest-rank names the
// 149th.
func TestPercentileDiffersFromFloorRank(t *testing.T) {
	s := seq(150)
	floorRank := s[int(float64(len(s)-1)*0.99)]
	if got := Percentile(s, 99); got <= floorRank {
		t.Fatalf("nearest-rank p99 %v should exceed the floor-rank %v", got, floorRank)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule itself: at the returned percentile at least MinBeyond
	// samples lie beyond the reported rank.
	for _, n := range []int{40, 100, 250, 1000, 5000, 10000} {
		p := TailPercentile(n)
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if beyond := n - rank; beyond < MinBeyond {
			t.Errorf("n=%d p=%v leaves %d samples beyond, want >= %d", n, p, beyond, MinBeyond)
		}
	}
}

func TestSummarizeMatchesPythonStatistics(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	cases := []struct {
		name           string
		v              []float64
		med, q1, q3    float64
		n              int
		spread         float64
		checkSpreadToo bool
	}{
		// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
		{"five passes", []float64{3, 1, 5, 2, 4}, 3, 1.5, 4.5, 5, 1, true},
		// statistics.quantiles(range(1,11), n=4) == [2.75, 5.5, 8.25]
		{"ten runs", seq(10), 5.5, 2.75, 8.25, 10, 1, true},
		// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
		{"two values extrapolate like Python", []float64{20, 10}, 15, 7.5, 22.5, 2, 1, true},
		// statistics.quantiles([1,2,4,8], n=4) == [1.25, 3.0, 7.0]
		{"four values", []float64{8, 1, 4, 2}, 3, 1.25, 7, 4, 0, false},
		{"one value collapses", []float64{9}, 9, 9, 9, 1, 0, true},
	}
	for _, c := range cases {
		s := Summarize(c.v)
		if !near(s.Median, c.med) || !near(s.Q1, c.q1) || !near(s.Q3, c.q3) || s.N != c.n {
			t.Errorf("%s: got %+v, want median=%v q1=%v q3=%v n=%d", c.name, s, c.med, c.q1, c.q3, c.n)
		}
		if c.checkSpreadToo && !near(s.Spread(), c.spread) {
			t.Errorf("%s: spread %v, want %v", c.name, s.Spread(), c.spread)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty sample: got %+v", s)
	}
	if got := (Summary{Median: 0, Q1: -1, Q3: 1}).Spread(); got != 0 {
		t.Errorf("zero median spread = %v, want 0", got)
	}
}

func TestBest(t *testing.T) {
	v := []float64{3, 1, 5, 2, 4}
	if got := Best(v, true); got != 1 {
		t.Errorf("lower is better: best of %v = %v, want 1", v, got)
	}
	if got := Best(v, false); got != 5 {
		t.Errorf("higher is better: best of %v = %v, want 5", v, got)
	}
	if got := Best(nil, true); got != 0 {
		t.Errorf("best of nothing = %v, want 0", got)
	}
}
