package admission

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/internal/telemetry"
)

// reservoirCap bounds the per-window latency sample reservoir.
const reservoirCap = 128

// Limiter adapts a concurrency limit from observed service latency,
// AIMD-style: service times are reservoir-sampled into adjustment
// windows; when a window's p50 stays within Tolerance× of the moving
// baseline the limit grows by one (additive increase, only while
// there is queued demand), and when it degrades past the tolerance
// the limit shrinks multiplicatively. The baseline is an EWMA of
// healthy-window p50s, so a slow drift in workload cost re-anchors it
// while a congestion spike does not. The same reservoir yields the
// p95 service time that drives doomed-request shedding.
//
// The reservoir is seeded (Config.Seed) so a replayed schedule adapts
// identically run to run.
type Limiter struct {
	min, max    int
	tolerance   float64
	decrease    float64
	adjustEvery int

	mu       sync.Mutex
	limit    float64
	window   *telemetry.Reservoir // service times of the current window (seconds)
	baseline float64              // EWMA of healthy window p50s (seconds)
	demand   bool                 // a request queued since the last adjustment

	p95bits  atomic.Uint64 // cached p95 (seconds, float bits)
	limitInt atomic.Int64  // cached rounded limit for lock-free reads
	adjusts  atomic.Int64
}

func newLimiter(cfg Config) *Limiter {
	l := &Limiter{
		min:         cfg.MinConcurrency,
		max:         cfg.MaxConcurrency,
		tolerance:   cfg.Tolerance,
		decrease:    cfg.DecreaseFactor,
		adjustEvery: cfg.AdjustEvery,
		limit:       float64(cfg.InitialConcurrency),
		window:      telemetry.NewReservoir(reservoirCap, cfg.Seed),
	}
	l.clampLocked()
	return l
}

// Limit returns the current concurrency limit, always within
// [MinConcurrency, MaxConcurrency].
func (l *Limiter) Limit() int { return int(l.limitInt.Load()) }

// P95 returns the p95 service time of the last adjustment window; 0
// until the first window completes (doomed shedding stays off while
// cold so a fresh server never rejects on a guess).
func (l *Limiter) P95() time.Duration {
	return time.Duration(math.Float64frombits(l.p95bits.Load()) * float64(time.Second))
}

// Adjustments returns how many windows have been evaluated.
func (l *Limiter) Adjustments() int64 { return l.adjusts.Load() }

// NoteDemand marks that a request had to queue, arming the additive
// increase for the current window.
func (l *Limiter) NoteDemand() {
	l.mu.Lock()
	l.demand = true
	l.mu.Unlock()
}

// Observe feeds one service-time sample and reports whether the limit
// changed (an adjustment window completed).
func (l *Limiter) Observe(service time.Duration) bool {
	s := service.Seconds()
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Reservoir sampling keeps the window a uniform draw over the
	// whole adjustment interval even under heavy traffic.
	l.window.Observe(s)
	if l.window.Count() < int64(l.adjustEvery) {
		return false
	}
	return l.adjustLocked()
}

// adjustLocked evaluates the completed window: AIMD step + p95 refresh.
func (l *Limiter) adjustLocked() bool {
	p50, _ := l.window.Quantile(0.50)
	p95, _ := l.window.Quantile(0.95)
	l.p95bits.Store(math.Float64bits(p95))
	l.adjusts.Add(1)

	before := l.Limit()
	if l.baseline == 0 {
		l.baseline = p50
	}
	if p50 > l.tolerance*l.baseline {
		// Congested: multiplicative decrease, baseline untouched so the
		// inflated latency cannot become the new normal.
		l.limit *= l.decrease
	} else {
		l.baseline = 0.8*l.baseline + 0.2*p50
		if l.demand {
			l.limit++
		}
	}
	l.demand = false
	l.window.Reset()
	l.clampLocked()
	return l.Limit() != before
}

func (l *Limiter) clampLocked() {
	if l.limit < float64(l.min) {
		l.limit = float64(l.min)
	}
	if l.limit > float64(l.max) {
		l.limit = float64(l.max)
	}
	l.limitInt.Store(int64(math.Round(l.limit)))
}
