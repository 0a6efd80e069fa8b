package admission

import (
	"math"
	"sort"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/stats"
)

func testLimiterConfig() Config {
	return Config{
		MinConcurrency:     2,
		MaxConcurrency:     16,
		InitialConcurrency: 8,
		AdjustEvery:        8,
		Tolerance:          2,
		DecreaseFactor:     0.5,
	}.withDefaults()
}

func TestLimiterDecreasesOnLatencyDegradation(t *testing.T) {
	l := newLimiter(testLimiterConfig())
	// Healthy window anchors the baseline at 10ms.
	for i := 0; i < 8; i++ {
		l.Observe(10 * time.Millisecond)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit after healthy window = %d, want 8 (no demand, no increase)", got)
	}
	// Degraded window: p50 jumps past tolerance×baseline → multiplicative cut.
	for i := 0; i < 8; i++ {
		l.Observe(100 * time.Millisecond)
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after degraded window = %d, want 4", got)
	}
	// Keep degrading: clamped at MinConcurrency.
	for w := 0; w < 5; w++ {
		for i := 0; i < 8; i++ {
			l.Observe(time.Second)
		}
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit = %d, want clamp at min 2", got)
	}
}

func TestLimiterIncreasesOnlyUnderDemand(t *testing.T) {
	l := newLimiter(testLimiterConfig())
	for i := 0; i < 8; i++ {
		l.Observe(10 * time.Millisecond)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit = %d, want 8 (healthy but idle)", got)
	}
	l.NoteDemand()
	for i := 0; i < 8; i++ {
		l.Observe(10 * time.Millisecond)
	}
	if got := l.Limit(); got != 9 {
		t.Fatalf("limit = %d, want 9 (healthy with queued demand)", got)
	}
}

func TestLimiterP95ColdThenWarm(t *testing.T) {
	l := newLimiter(testLimiterConfig())
	if got := l.P95(); got != 0 {
		t.Fatalf("cold p95 = %v, want 0", got)
	}
	for i := 0; i < 7; i++ {
		l.Observe(10 * time.Millisecond)
	}
	l.Observe(90 * time.Millisecond)
	p95 := l.P95()
	if p95 < 10*time.Millisecond || p95 > 90*time.Millisecond {
		t.Fatalf("p95 = %v, want within observed range", p95)
	}
	if l.Adjustments() != 1 {
		t.Fatalf("adjustments = %d, want 1", l.Adjustments())
	}
}

func TestLimiterRejectsPathologicalSamples(t *testing.T) {
	l := newLimiter(testLimiterConfig())
	l.Observe(-time.Second)
	l.Observe(time.Duration(math.MaxInt64))
	for _, s := range []float64{math.NaN(), math.Inf(1)} {
		l.Observe(time.Duration(s))
	}
	if l.Adjustments() != 0 {
		t.Fatal("pathological samples advanced the window")
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit = %d, want untouched 8", got)
	}
}

func TestLimiterDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, time.Duration) {
		l := newLimiter(testLimiterConfig())
		for i := 0; i < 1000; i++ {
			l.NoteDemand()
			l.Observe(time.Duration(1+i%17) * time.Millisecond)
		}
		return l.Limit(), l.P95()
	}
	l1, p1 := run()
	l2, p2 := run()
	if l1 != l2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", l1, p1, l2, p2)
	}
}

// refLimiter is the limiter as it was before it sampled into
// telemetry.Reservoir: a private window, a private count and a private
// RNG, copied and sorted once per adjustment. It is kept verbatim as the
// reference of TestLimiterMatchesWindowedReference.
type refLimiter struct {
	min, max    int
	tolerance   float64
	decrease    float64
	adjustEvery int

	limit    float64
	window   []float64
	seen     int
	baseline float64
	demand   bool
	rng      *stats.RNG

	p95      float64
	limitInt int
	adjusts  int64
}

func newRefLimiter(cfg Config) *refLimiter {
	l := &refLimiter{
		min:         cfg.MinConcurrency,
		max:         cfg.MaxConcurrency,
		tolerance:   cfg.Tolerance,
		decrease:    cfg.DecreaseFactor,
		adjustEvery: cfg.AdjustEvery,
		limit:       float64(cfg.InitialConcurrency),
		window:      make([]float64, 0, reservoirCap),
		rng:         stats.NewRNG(cfg.Seed),
	}
	l.clamp()
	return l
}

func (l *refLimiter) P95() time.Duration {
	return time.Duration(l.p95 * float64(time.Second))
}

func (l *refLimiter) Observe(service time.Duration) bool {
	s := service.Seconds()
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false
	}
	if len(l.window) < reservoirCap {
		l.window = append(l.window, s)
	} else if i := l.rng.Intn(l.seen + 1); i < reservoirCap {
		l.window[i] = s
	}
	l.seen++
	if l.seen < l.adjustEvery {
		return false
	}
	return l.adjust()
}

func (l *refLimiter) adjust() bool {
	sorted := append([]float64(nil), l.window...)
	sort.Float64s(sorted)
	p50 := refQuantile(sorted, 0.50)
	l.p95 = refQuantile(sorted, 0.95)
	l.adjusts++

	before := l.limitInt
	if l.baseline == 0 {
		l.baseline = p50
	}
	if p50 > l.tolerance*l.baseline {
		l.limit *= l.decrease
	} else {
		l.baseline = 0.8*l.baseline + 0.2*p50
		if l.demand {
			l.limit++
		}
	}
	l.demand = false
	l.seen = 0
	l.window = l.window[:0]
	l.clamp()
	return l.limitInt != before
}

func (l *refLimiter) clamp() {
	if l.limit < float64(l.min) {
		l.limit = float64(l.min)
	}
	if l.limit > float64(l.max) {
		l.limit = float64(l.max)
	}
	l.limitInt = int(math.Round(l.limit))
}

func refQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// The limiter on the shared reservoir must be the old limiter, step for
// step: same return value, limit, p95 and adjustment count after every
// one of 200 000 seeded observations per seed — rejected samples mixed
// in, congestion episodes that move the limit both ways, and windows
// both below the reservoir capacity (no replacement draw) and above it.
func TestLimiterMatchesWindowedReference(t *testing.T) {
	const steps = 200_000
	windows := []int{1, 8, 100, reservoirCap, reservoirCap + 1, 500, 2000}
	for seed := uint64(1); seed <= 21; seed++ {
		cfg := testLimiterConfig()
		cfg.Seed = seed
		cfg.AdjustEvery = windows[int(seed)%len(windows)]
		got, want := newLimiter(cfg), newRefLimiter(cfg)
		in := stats.NewRNG(seed * 7919)
		for i := 0; i < steps; i++ {
			var d time.Duration
			switch u := in.Float64(); {
			case u < 0.02:
				d = -time.Duration(1 + in.Intn(1000))
			case u < 0.03:
				d = time.Duration(math.NaN())
			case u < 0.04:
				d = time.Duration(math.MaxInt64)
			case (i/5000)%3 == 2: // a congestion episode every third stretch
				d = time.Duration(50+in.Intn(200)) * time.Millisecond
			default:
				d = time.Duration(1+in.Intn(20_000)) * time.Microsecond
			}
			if in.Bool(0.1) {
				got.NoteDemand()
				want.demand = true
			}
			if g, w := got.Observe(d), want.Observe(d); g != w {
				t.Fatalf("seed %d step %d: Observe(%v) = %v, reference %v", seed, i, d, g, w)
			}
			if got.Limit() != want.limitInt || got.P95() != want.P95() || got.Adjustments() != want.adjusts {
				t.Fatalf("seed %d step %d: limit/p95/adjustments = %d/%v/%d, reference %d/%v/%d",
					seed, i, got.Limit(), got.P95(), got.Adjustments(), want.limitInt, want.P95(), want.adjusts)
			}
		}
		if want.adjusts == 0 {
			t.Fatalf("seed %d: no window ever completed", seed)
		}
	}
}

func TestRateLimiterRefillAndRetryAfter(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	rl := NewRateLimiter(10, 2, 8, clk)

	for i := 0; i < 2; i++ {
		if ok, _ := rl.Allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.Allow("a")
	if ok {
		t.Fatal("over-burst request allowed")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10 rps", retry)
	}
	// After the hinted wait, one token is back.
	clk.Advance(retry)
	if ok, _ := rl.Allow("a"); !ok {
		t.Fatal("request denied after waiting the hinted Retry-After")
	}
}

func TestRateLimiterLRUEviction(t *testing.T) {
	rl := NewRateLimiter(1, 1, 2, clock.NewManual(time.Unix(0, 0)))
	rl.Allow("a") // a spends its only token
	rl.Allow("b")
	rl.Allow("c") // evicts a (capacity 2)
	if got := rl.Clients(); got != 2 {
		t.Fatalf("clients = %d, want 2", got)
	}
	// a returns with a fresh bucket: its spent token is forgotten.
	if ok, _ := rl.Allow("a"); !ok {
		t.Fatal("re-inserted client denied its burst")
	}
}
