package admission

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// p95Window is how many completed requests one p95 estimate spans.
	p95Window = 64
	// p95Rank is the p95's index in a sorted window (nearest rank).
	p95Rank = (p95Window - 1) * 95 / 100
)

// Limiter estimates the p95 service time that doomed-request shedding
// holds a request's remaining deadline against: completed requests'
// service times fill a window of p95Window, and each full window is
// sorted, publishes its p95 and starts the next.
type Limiter struct {
	mu      sync.Mutex
	window  []float64     // service times of the current window (seconds)
	p95bits atomic.Uint64 // p95 of the last full window (seconds, float bits)
}

func newLimiter() *Limiter {
	return &Limiter{window: make([]float64, 0, p95Window)}
}

// P95 returns the p95 service time of the last full window; 0 until the
// first window completes (doomed shedding stays off while cold so a
// fresh server never rejects on a guess).
func (l *Limiter) P95() time.Duration {
	return time.Duration(math.Float64frombits(l.p95bits.Load()) * float64(time.Second))
}

// Observe feeds one service-time sample; a negative or non-finite one is
// dropped.
func (l *Limiter) Observe(service time.Duration) {
	s := service.Seconds()
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.window = append(l.window, s)
	if len(l.window) < p95Window {
		return
	}
	sort.Float64s(l.window)
	l.p95bits.Store(math.Float64bits(l.window[p95Rank]))
	l.window = l.window[:0]
}
