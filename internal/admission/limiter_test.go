package admission

import (
	"math"
	"sort"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/stats"
)

func TestLimiterP95ColdThenWarm(t *testing.T) {
	l := newLimiter()
	for i := 0; i < p95Window-1; i++ {
		l.Observe(10 * time.Millisecond)
	}
	if got := l.P95(); got != 0 {
		t.Fatalf("p95 = %v before the first window completed, want 0", got)
	}
	l.Observe(90 * time.Millisecond)
	p95 := l.P95()
	if p95 < 10*time.Millisecond || p95 > 90*time.Millisecond {
		t.Fatalf("p95 = %v, want within observed range", p95)
	}
}

func TestLimiterRejectsPathologicalSamples(t *testing.T) {
	l := newLimiter()
	l.Observe(-time.Second)
	l.Observe(time.Duration(math.MaxInt64))
	for _, s := range []float64{math.NaN(), math.Inf(1)} {
		l.Observe(time.Duration(s))
	}
	// The longest Duration is absurd but finite and counts; the negative
	// and non-finite ones do not.
	if n := len(l.window); n != 1 {
		t.Fatalf("window holds %d samples, want 1", n)
	}
	if got := l.P95(); got != 0 {
		t.Fatalf("p95 = %v, want untouched 0", got)
	}
}

func TestLimiterDeterministicAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		l := newLimiter()
		for i := 0; i < 1000; i++ {
			l.Observe(time.Duration(1+i%17) * time.Millisecond)
		}
		return l.P95()
	}
	if p1, p2 := run(), run(); p1 != p2 {
		t.Fatalf("nondeterministic: %v vs %v", p1, p2)
	}
}

// refLimiter is the p95 window as a private window, copied and sorted
// once it is full. It is the reference of
// TestLimiterMatchesWindowedReference.
type refLimiter struct {
	window []float64
	p95    float64
}

func (l *refLimiter) P95() time.Duration {
	return time.Duration(l.p95 * float64(time.Second))
}

func (l *refLimiter) Observe(service time.Duration) {
	s := service.Seconds()
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return
	}
	l.window = append(l.window, s)
	if len(l.window) < p95Window {
		return
	}
	sorted := append([]float64(nil), l.window...)
	sort.Float64s(sorted)
	l.p95 = sorted[int(0.95*float64(len(sorted)-1))]
	l.window = l.window[:0]
}

// The p95 window must be the reference, step for step: the same p95
// after every one of 200 000 seeded observations per seed — rejected
// samples mixed in, and congestion episodes that move the p95 both ways.
func TestLimiterMatchesWindowedReference(t *testing.T) {
	const steps = 200_000
	for seed := uint64(1); seed <= 21; seed++ {
		got, want := newLimiter(), new(refLimiter)
		in := stats.NewRNG(seed * 7919)
		windows := 0
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
			before := want.P95()
			got.Observe(d)
			want.Observe(d)
			if got.P95() != want.P95() {
				t.Fatalf("seed %d step %d: p95 = %v, reference %v", seed, i, got.P95(), want.P95())
			}
			if want.P95() != before {
				windows++
			}
		}
		if windows == 0 {
			t.Fatalf("seed %d: the p95 never moved", seed)
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
