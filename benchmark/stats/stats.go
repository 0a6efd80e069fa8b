// Package stats holds the sample statistics every benchmark number goes
// through: nearest-rank percentiles, the rule that picks which tail
// percentile a sample is large enough to report, and the
// median-of-passes summary with quartiles.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the value at rank ceil(p/100·n), 1-based. Unlike
// the floor((n-1)·q) index cmd/mcbound-bench uses, it never reports a
// tail from below the rank it names (p99 of 100 samples is the 99th
// value, not the 98th). An empty sample yields 0.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n)/100 - rankEps))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// rankEps absorbs float error in p·n/100 (99.9·1000/100 is
// 999.0000000000001 in float64 and must not round up to rank 1000).
const rankEps = 1e-9

// MinBeyond is how many samples must lie beyond a percentile before it
// is reported as a tail.
const MinBeyond = 10

// tailLadder lists the tail percentiles a report may name, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// TailPercentile returns the highest percentile of the ladder that
// leaves at least MinBeyond of n samples beyond it (p99 needs 1 000
// samples, p99.9 needs 10 000), or 0 when even p75 does not — the
// sample is then too small to speak about a tail at all.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= MinBeyond-rankEps {
			return p
		}
	}
	return 0
}

// Sorted returns an ascending copy of v.
func Sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Summary is the median of a set of per-pass (or per-run) values with
// its quartiles and the number of values behind it.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Spread is the inter-quartile distance as a share of the median, the
// steadiness figure the benchmark contract bounds. 0 when the median is.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Summarize computes the median and the quartiles of v the way Python's
// statistics.median and statistics.quantiles(v, n=4) (the default
// "exclusive" method) do, so a spread computed here equals the one the
// benchmark driver computes from the same values. With fewer than two
// values the quartiles collapse onto the median.
func Summarize(v []float64) Summary {
	s := Sorted(v)
	n := len(s)
	if n == 0 {
		return Summary{}
	}
	out := Summary{N: n}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		out.Q1, out.Q3 = out.Median, out.Median
		return out
	}
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = quart(1), quart(3)
	return out
}

// Best returns the smallest value of v when lower is better, the largest
// otherwise; 0 for an empty v.
func Best(v []float64, lower bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := Sorted(v)
	if lower {
		return s[0]
	}
	return s[len(s)-1]
}
