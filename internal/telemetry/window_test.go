package telemetry

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"mcbound/internal/stats"
)

func TestP95WindowColdThenWarm(t *testing.T) {
	l := NewP95Window()
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

func TestP95WindowRejectsPathologicalSamples(t *testing.T) {
	l := NewP95Window()
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

func TestP95WindowDeterministicAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		l := NewP95Window()
		for i := 0; i < 1000; i++ {
			l.Observe(time.Duration(1+i%17) * time.Millisecond)
		}
		return l.P95()
	}
	if p1, p2 := run(), run(); p1 != p2 {
		t.Fatalf("nondeterministic: %v vs %v", p1, p2)
	}
}

// refP95Window is the p95 window as a private window, copied and sorted
// once it is full. It is the reference of
// TestP95WindowMatchesWindowedReference.
type refP95Window struct {
	window []float64
	p95    float64
}

func (l *refP95Window) P95() time.Duration {
	return time.Duration(l.p95 * float64(time.Second))
}

func (l *refP95Window) Observe(service time.Duration) {
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
func TestP95WindowMatchesWindowedReference(t *testing.T) {
	const steps = 200_000
	for seed := uint64(1); seed <= 21; seed++ {
		got, want := NewP95Window(), new(refP95Window)
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

// Observers and readers race freely (run with -race): every full window
// publishes, and the published p95 is one of the observations.
func TestP95WindowConcurrentObserve(t *testing.T) {
	l := NewP95Window()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8*p95Window; i++ {
				l.Observe(time.Duration(w*1000+i) * time.Microsecond)
				l.P95()
			}
		}(w)
	}
	wg.Wait()
	if n := len(l.window); n != 0 {
		t.Fatalf("%d observations left over after 64 full windows", n)
	}
	if p := l.P95(); p <= 0 || p >= 8*time.Millisecond {
		t.Fatalf("p95 = %v, want one of the observations", p)
	}
}

// Every routed read asks P95 of each candidate and every completed one
// Observes: neither allocates.
func TestP95WindowDoesNotAllocate(t *testing.T) {
	l := NewP95Window()
	i := 0
	if n := testing.AllocsPerRun(1000, func() { l.Observe(time.Duration(i%701) * time.Microsecond); i++ }); n != 0 {
		t.Fatalf("Observe allocates %v times a call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.P95() }); n != 0 {
		t.Fatalf("P95 allocates %v times a call, want 0", n)
	}
}

// The window's two costs on a routed read: P95 for each candidate,
// Observe once the read completes (one sort every p95Window calls).
func BenchmarkP95WindowObserve(b *testing.B) {
	rng := stats.NewRNG(2)
	vals := make([]time.Duration, 8*p95Window)
	for i := range vals {
		vals[i] = time.Duration(rng.Float64() * float64(time.Millisecond))
	}
	l := NewP95Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(vals[i%len(vals)])
	}
}

func BenchmarkP95WindowP95(b *testing.B) {
	l := NewP95Window()
	for i := 0; i < p95Window; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.P95()
	}
}
