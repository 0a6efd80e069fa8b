package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P25, Median, P75 float64
	P5, P95          float64
	Sum              float64
	GeoMean          float64 // geometric mean; NaN if any value <= 0
}

// Describe computes descriptive statistics over xs. An empty sample yields
// a zero Summary with N == 0.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P5:     Quantile(sorted, 0.05),
		P25:    Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		P75:    Quantile(sorted, 0.75),
		P95:    Quantile(sorted, 0.95),
	}
	logSum, logOK := 0.0, true
	for _, x := range xs {
		s.Sum += x
		if x > 0 {
			logSum += math.Log(x)
		} else {
			logOK = false
		}
	}
	s.Mean = s.Sum / float64(s.N)
	varAcc := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varAcc += d * d
	}
	s.Std = math.Sqrt(varAcc / float64(s.N))
	if logOK {
		s.GeoMean = math.Exp(logSum / float64(s.N))
	} else {
		s.GeoMean = math.NaN()
	}
	return s
}

// Quantile returns the linear-interpolated q-quantile of an already sorted
// sample. q is clamped to [0, 1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-bin histogram over a linear or logarithmic domain.
type Histogram struct {
	Edges  []float64 // len = bins+1, ascending
	Counts []int     // len = bins
	Under  int       // values below Edges[0]
	Over   int       // values at or above Edges[last]
	Log    bool
}

// NewHistogram builds an empty histogram with the given number of bins
// spanning [min, max). If log is true the bins are geometric and min must
// be > 0.
func NewHistogram(min, max float64, bins int, log bool) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs bins > 0, got %d", bins)
	}
	if !(max > min) {
		return nil, fmt.Errorf("stats: histogram needs max > min, got [%g, %g]", min, max)
	}
	if log && min <= 0 {
		return nil, fmt.Errorf("stats: log histogram needs min > 0, got %g", min)
	}
	h := &Histogram{
		Edges:  make([]float64, bins+1),
		Counts: make([]int, bins),
		Log:    log,
	}
	if log {
		lmin, lmax := math.Log(min), math.Log(max)
		for i := 0; i <= bins; i++ {
			h.Edges[i] = math.Exp(lmin + (lmax-lmin)*float64(i)/float64(bins))
		}
	} else {
		for i := 0; i <= bins; i++ {
			h.Edges[i] = min + (max-min)*float64(i)/float64(bins)
		}
	}
	// Force exact first/last edges to avoid float drift.
	h.Edges[0], h.Edges[bins] = min, max
	return h, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Edges[0]:
		h.Under++
	case x >= h.Edges[len(h.Edges)-1]:
		h.Over++
	default:
		h.Counts[h.bin(x)]++
	}
}

func (h *Histogram) bin(x float64) int {
	lo, hi := 0, len(h.Counts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if x >= h.Edges[mid] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Render draws an ASCII bar chart of the histogram, width chars wide,
// with a label formatter for the bin edges. Used by the figure drivers.
func (h *Histogram) Render(width int, format func(lo, hi float64) string) string {
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/maxC)
		fmt.Fprintf(&b, "%-24s %9d |%s\n", format(h.Edges[i], h.Edges[i+1]), c, bar)
	}
	return b.String()
}
