package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// p95Window is how many observations one p95 estimate spans.
	p95Window = 64
	// p95Rank is the p95's index in a sorted window (nearest rank).
	p95Rank = (p95Window - 1) * 95 / 100
)

// P95Window is the module's online p95 estimator: observations fill a
// window of p95Window, and each full window is sorted, publishes its
// p95 and starts the next. Admission holds a request's remaining
// deadline against the p95 of its service times; the router hedges a
// read after the smallest p95 of its candidates' read latencies. The
// window never samples, so it draws nothing at random and takes no
// seed. Safe for concurrent use.
type P95Window struct {
	mu      sync.Mutex
	window  []float64     // observations of the current window (seconds)
	p95bits atomic.Uint64 // p95 of the last full window (seconds, float bits)
}

// NewP95Window builds an empty window.
func NewP95Window() *P95Window {
	return &P95Window{window: make([]float64, 0, p95Window)}
}

// P95 returns the p95 of the last full window, one atomic load; 0 until
// the first window completes (a cold window is no estimate: doomed
// shedding stays off and the hedge keeps its floor).
func (w *P95Window) P95() time.Duration {
	return time.Duration(math.Float64frombits(w.p95bits.Load()) * float64(time.Second))
}

// Observe feeds one observation; a negative or non-finite one is
// dropped.
func (w *P95Window) Observe(d time.Duration) {
	s := d.Seconds()
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.window = append(w.window, s)
	if len(w.window) < p95Window {
		return
	}
	sort.Float64s(w.window)
	w.p95bits.Store(math.Float64bits(w.window[p95Rank]))
	w.window = w.window[:0]
}
