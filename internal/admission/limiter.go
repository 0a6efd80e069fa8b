package admission

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/internal/telemetry"
)

const (
	// p95Window is how many completed requests one p95 estimate spans.
	p95Window = 64
	// reservoirCap bounds the window's latency sample.
	reservoirCap = 128
)

// Limiter estimates the p95 service time that doomed-request shedding
// holds a request's remaining deadline against: completed requests'
// service times are reservoir-sampled into a window of p95Window, and
// each full window publishes its p95 and starts the next. The reservoir
// is seeded (Config.Seed), so a replayed schedule sheds identically run
// to run.
type Limiter struct {
	mu      sync.Mutex
	window  *telemetry.Reservoir // service times of the current window (seconds)
	p95bits atomic.Uint64        // p95 of the last full window (seconds, float bits)
}

func newLimiter(cfg Config) *Limiter {
	return &Limiter{window: telemetry.NewReservoir(reservoirCap, cfg.Seed)}
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
	l.window.Observe(s)
	if l.window.Count() < p95Window {
		return
	}
	p95, _ := l.window.Quantile(0.95)
	l.p95bits.Store(math.Float64bits(p95))
	l.window.Reset()
}
