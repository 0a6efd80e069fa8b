package telemetry

import (
	"math"
	"sort"
	"sync"

	"mcbound/internal/stats"
)

// Reservoir is a fixed-capacity uniform sample of a value stream
// (Vitter's algorithm R) answering quantile queries — the primitive
// behind adaptive thresholds like the router's hedge delay, where a
// full histogram's fixed buckets are too coarse and an unbounded
// sample would leak. Replacement draws come from a seeded stats.RNG,
// so a test run's sample is reproducible. Safe for concurrent use.
//
// The sample is kept twice: vals in slot order, which is what
// algorithm R replaces into, and sorted, the same multiset ascending.
// Observe pays one binary search and one memmove of at most cap
// floats (4 KB at the router's 512) to keep the mirror in step, and
// Quantile — called on every routed read, where Observe runs once —
// is an index instead of a copy and a sort.
type Reservoir struct {
	mu     sync.Mutex
	vals   []float64
	sorted []float64
	cap    int
	n      int64
	rng    *stats.RNG
}

// NewReservoir builds an empty reservoir holding at most capacity
// samples (values < 1 behave as 1), seeded deterministically.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{
		vals:   make([]float64, 0, capacity),
		sorted: make([]float64, 0, capacity),
		cap:    capacity,
		rng:    stats.NewRNG(seed),
	}
}

// Observe offers one sample. Once the reservoir is full, the sample
// replaces a uniformly chosen resident with probability cap/n, keeping
// the retained set a uniform sample of everything observed.
func (r *Reservoir) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.mu.Lock()
	r.n++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		at := sort.SearchFloat64s(r.sorted, v)
		r.sorted = append(r.sorted, 0)
		copy(r.sorted[at+1:], r.sorted[at:])
		r.sorted[at] = v
	} else if j := r.rng.Intn(int(minInt64(r.n, math.MaxInt32))); j < r.cap {
		r.replaceSorted(r.vals[j], v)
		r.vals[j] = v
	}
	r.mu.Unlock()
}

// replaceSorted swaps one resident old for v in the sorted mirror by
// shifting only the elements between the two positions.
func (r *Reservoir) replaceSorted(old, v float64) {
	s := r.sorted
	from := sort.SearchFloat64s(s, old)
	// ±0 compare equal but are different samples: take out the one
	// that left, so the mirror stays the same multiset bit for bit.
	for math.Float64bits(s[from]) != math.Float64bits(old) {
		from++
	}
	to := sort.SearchFloat64s(s, v)
	if to <= from {
		copy(s[to+1:from+1], s[to:from])
	} else {
		to-- // old sits below the insertion point and leaves
		copy(s[from:to], s[from+1:to+1])
	}
	s[to] = v
}

// Quantile returns the q-quantile (clamped to [0, 1]) of the retained
// sample by nearest-rank; ok is false while the reservoir is empty.
func (r *Reservoir) Quantile(q float64) (v float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sorted) == 0 {
		return 0, false
	}
	q = math.Max(0, math.Min(1, q))
	return r.sorted[int(q*float64(len(r.sorted)-1))], true
}

// Count reports how many samples have been observed (not retained).
func (r *Reservoir) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
