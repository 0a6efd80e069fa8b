package clock_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/stats"
)

var epoch = time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)

// The four jitter properties every caller relies on, asserted once on
// the one formula: band, mean, per-seed determinism, and zero-fraction
// exactness with the 1 ms floor. Callers pin only their fraction.

func TestJitterBandAndMean(t *testing.T) {
	const n = 10_000
	period, frac := time.Hour, 0.10
	lo, hi := time.Duration(float64(period)*(1-frac)), time.Duration(float64(period)*(1+frac))
	rng := stats.NewRNG(42)
	var sum time.Duration
	distinct := map[time.Duration]bool{}
	for i := 0; i < n; i++ {
		d := clock.Jitter(period, frac, rng.Float64())
		if d < lo || d > hi {
			t.Fatalf("draw %d = %v outside [%v, %v]", i, d, lo, hi)
		}
		sum += d
		distinct[d] = true
	}
	// Uniform over period ± 10%: the mean stays within 1% of the period,
	// so the long-run rate is unchanged.
	if mean := sum / n; (mean - period).Abs() > period/100 {
		t.Fatalf("mean interval %v drifted from period %v", mean, period)
	}
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct draws over %d — jitter not spreading", len(distinct), n)
	}
	// The ends of the draw are the ends of the band.
	if got := clock.Jitter(period, frac, 0); got != lo {
		t.Fatalf("u=0 drew %v, want %v", got, lo)
	}
	if got := clock.Jitter(10*time.Second, 0.5, 0.5); got != 10*time.Second {
		t.Fatalf("u=0.5 drew %v, want the period", got)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	a, b, c := stats.NewRNG(7), stats.NewRNG(7), stats.NewRNG(8)
	sameAsC := 0
	for i := 0; i < 100; i++ {
		av := clock.Jitter(time.Hour, clock.DefaultJitter, a.Float64())
		if bv := clock.Jitter(time.Hour, clock.DefaultJitter, b.Float64()); av != bv {
			t.Fatalf("draw %d: same seed diverged (%v vs %v)", i, av, bv)
		}
		if av == clock.Jitter(time.Hour, clock.DefaultJitter, c.Float64()) {
			sameAsC++
		}
	}
	if sameAsC == 100 {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestJitterZeroFractionIsExact(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, frac := range []float64{0, -1} { // a negative fraction clamps to 0
		for i := 0; i < 10; i++ {
			if d := clock.Jitter(time.Hour, frac, rng.Float64()); d != time.Hour {
				t.Fatalf("fraction %v drew %v, want exactly 1h", frac, d)
			}
		}
	}
}

func TestJitterFloorsAndClamps(t *testing.T) {
	if d := clock.Jitter(0, clock.DefaultJitter, 0.3); d != time.Millisecond {
		t.Fatalf("zero period drew %v, want the 1ms floor", d)
	}
	// Out-of-range fractions are clamped, not propagated: 5.0 acts as 1.
	if d := clock.Jitter(time.Second, 5.0, 0.25); d != 500*time.Millisecond {
		t.Fatalf("clamped fraction drew %v, want 500ms", d)
	}
}

// The timer contract, asserted on both clocks: each case gets a fresh
// clock and the way to let time pass on it.
var clocks = []struct {
	name string
	make func() (c clock.Clock, pass func(time.Duration))
}{
	{"wall", func() (clock.Clock, func(time.Duration)) { return clock.Wall{}, time.Sleep }},
	{"manual", func() (clock.Clock, func(time.Duration)) {
		m := clock.NewManual(epoch)
		return m, m.Advance
	}},
}

const delay = 20 * time.Millisecond

func TestAfterFuncRunsOnceAfterItsDelay(t *testing.T) {
	for _, tc := range clocks {
		t.Run(tc.name, func(t *testing.T) {
			c, pass := tc.make()
			armed := c.Now()
			var runs atomic.Int32
			fired := make(chan time.Time, 1)
			c.AfterFunc(delay, func() {
				runs.Add(1)
				fired <- c.Now()
			})
			pass(delay)
			if at := <-fired; at.Sub(armed) < delay {
				t.Fatalf("ran %v after it was armed, want at least %v", at.Sub(armed), delay)
			}
			pass(2 * delay)
			if n := runs.Load(); n != 1 {
				t.Fatalf("ran %d times", n)
			}
			// A delay that has already elapsed runs at once, with no time passing.
			for _, d := range []time.Duration{0, -time.Second} {
				now := make(chan struct{})
				c.AfterFunc(d, func() { close(now) })
				<-now
			}
		})
	}
}

func TestStopReportsWhetherItKeptTheFuncFromRunning(t *testing.T) {
	for _, tc := range clocks {
		t.Run(tc.name, func(t *testing.T) {
			c, pass := tc.make()
			var stoppedRan atomic.Bool
			stopped := c.AfterFunc(delay, func() { stoppedRan.Store(true) })
			fired := make(chan struct{})
			later := c.AfterFunc(2*delay, func() { close(fired) })
			if !stopped.Stop() {
				t.Fatal("Stop before the delay = false, want true")
			}
			pass(2 * delay)
			<-fired
			if stoppedRan.Load() {
				t.Fatal("a stopped func ran")
			}
			if stopped.Stop() || later.Stop() {
				t.Fatal("Stop of a stopped or fired timer = true, want false")
			}
		})
	}
}

func TestBlockUntilCountsArmedFuncs(t *testing.T) {
	m := clock.NewManual(epoch)
	m.AfterFunc(time.Second, func() {})
	m.AfterFunc(time.Second, func() {}).Stop() // disarmed: not counted
	m.AfterFunc(0, func() {})                  // started at once: not counted
	m.BlockUntil(1)                            // returns at once: one func is armed
	parked := make(chan struct{})
	go func() { m.BlockUntil(2); close(parked) }()
	select {
	case <-parked:
		t.Fatal("BlockUntil(2) returned with one func armed")
	case <-time.After(delay):
	}
	m.AfterFunc(time.Minute, func() {})
	<-parked
	m.Advance(time.Second) // the first one fires; the minute one still counts
	m.BlockUntil(1)
}

func TestManualFiresTimersAsTheyComeDue(t *testing.T) {
	m := clock.NewManual(epoch)
	early, late := make(chan time.Time, 1), make(chan time.Time, 1)
	m.AfterFunc(time.Second, func() { early <- m.Now() })
	m.AfterFunc(3*time.Second, func() { late <- m.Now() })
	m.AfterFunc(time.Second, func() { t.Error("stopped timer fired") }).Stop()

	m.Advance(2 * time.Second)
	if at := <-early; !at.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("early timer read %v", at)
	}
	m.BlockUntil(1) // the 3s timer is still armed
	m.Advance(time.Second)
	if at := <-late; !at.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("late timer read %v after 3s of advances", at)
	}
}

func TestManualAdvanceDoesNotWaitForTheFuncsItStarts(t *testing.T) {
	m := clock.NewManual(epoch)
	forever := make(chan struct{})
	defer close(forever)
	m.AfterFunc(time.Second, func() {
		m.AfterFunc(time.Hour, func() {}) // the func may use its clock
		<-forever
	})
	next := make(chan time.Time, 1)
	m.AfterFunc(2*time.Second, func() { next <- m.Now() })
	m.Advance(time.Second)
	m.BlockUntil(2) // the blocked func re-armed on the clock
	m.Advance(time.Second)
	if at := <-next; !at.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("second func read %v", at)
	}
}

func TestSleepHonoursClockAndContext(t *testing.T) {
	m := clock.NewManual(epoch)
	slept := make(chan error, 1)
	go func() { slept <- clock.Sleep(context.Background(), m, time.Minute) }()
	m.BlockUntil(1)
	m.Advance(time.Minute)
	if err := <-slept; err != nil {
		t.Fatalf("Sleep = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { slept <- clock.Sleep(ctx, m, time.Minute) }()
	m.BlockUntil(1)
	cancel()
	if err := <-slept; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Sleep = %v", err)
	}
	m.Advance(time.Hour) // the abandoned timer was released, nothing to fire
	if err := clock.Sleep(ctx, m, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero Sleep on a done context = %v", err)
	}
}

func TestLoopStepsOnItsPeriodAndStopCutsTheStepShort(t *testing.T) {
	m := clock.NewManual(epoch)
	var steps atomic.Int32
	inStep := make(chan struct{})
	l := clock.NewLoop(m, func() time.Duration { return time.Second }, func(ctx context.Context) {
		if steps.Add(1) == 3 {
			close(inStep)
			<-ctx.Done() // a step stuck on I/O: only Stop's cancel ends it
		}
	})
	go l.Run(context.Background(), 5*time.Second)

	m.BlockUntil(1)
	m.Advance(4 * time.Second)
	if n := steps.Load(); n != 0 {
		t.Fatalf("%d steps before the first delay elapsed", n)
	}
	m.Advance(time.Second) // first
	m.BlockUntil(1)
	m.Advance(time.Second) // next()
	m.BlockUntil(1)
	if n := steps.Load(); n != 2 {
		t.Fatalf("%d steps after first + one period, want 2", n)
	}
	m.Advance(time.Second)
	<-inStep
	l.Stop() // returns only once Run has
	l.Stop()
	if n := steps.Load(); n != 3 {
		t.Fatalf("%d steps at Stop, want 3", n)
	}
}

func TestLoopStopWithoutRunDoesNotWait(t *testing.T) {
	l := clock.NewLoop(clock.Wall{}, func() time.Duration { return time.Hour }, func(context.Context) {})
	l.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l.Run(ctx, time.Hour) // a stopped loop (and a done context) returns at once
}

// The deadline contract, asserted on both clocks: WithTimeout on Wall is
// the standard library's, and a Manual deadline must read the same.
func TestWithTimeoutExpiresAfterItsDelay(t *testing.T) {
	for _, tc := range clocks {
		t.Run(tc.name, func(t *testing.T) {
			c, pass := tc.make()
			armed := c.Now()
			ctx, cancel := clock.WithTimeout(context.Background(), c, delay)
			defer cancel()
			if dl, ok := ctx.Deadline(); !ok || dl.Before(armed.Add(delay)) || dl.After(c.Now().Add(delay)) {
				t.Fatalf("Deadline() = %v, %v, want %v after the call", dl, ok, delay)
			}
			select {
			case <-ctx.Done():
				t.Fatal("done before its delay")
			default:
			}
			if err := ctx.Err(); err != nil {
				t.Fatalf("Err() before the delay = %v", err)
			}
			pass(delay)
			<-ctx.Done()
			if err := ctx.Err(); err != context.DeadlineExceeded {
				t.Fatalf("Err() = %v, want context.DeadlineExceeded", err)
			}
			if cause := context.Cause(ctx); cause != context.DeadlineExceeded {
				t.Fatalf("Cause() = %v, want context.DeadlineExceeded", cause)
			}
		})
	}
}

func TestWithTimeoutFollowsItsParent(t *testing.T) {
	for _, tc := range clocks {
		t.Run(tc.name, func(t *testing.T) {
			c, pass := tc.make()
			// An earlier parent deadline is the child's, and its expiry
			// reads as one.
			parent, cancelParent := clock.WithTimeout(context.Background(), c, delay)
			defer cancelParent()
			ctx, cancel := clock.WithTimeout(parent, c, time.Hour)
			defer cancel()
			pd, _ := parent.Deadline()
			if dl, ok := ctx.Deadline(); !ok || !dl.Equal(pd) {
				t.Fatalf("Deadline() = %v, %v, want the parent's %v", dl, ok, pd)
			}
			pass(delay)
			<-ctx.Done()
			if err := ctx.Err(); err != context.DeadlineExceeded {
				t.Fatalf("Err() under an expired parent = %v, want context.DeadlineExceeded", err)
			}

			// A parent's cancel reaches the child as a cancel.
			canceled, cancelCanceled := context.WithCancel(context.Background())
			ctx, cancel = clock.WithTimeout(canceled, c, time.Hour)
			defer cancel()
			cancelCanceled()
			<-ctx.Done()
			if err := ctx.Err(); err != context.Canceled {
				t.Fatalf("Err() under a canceled parent = %v, want context.Canceled", err)
			}

			// So does the child's own cancel.
			ctx, cancel = clock.WithTimeout(context.Background(), c, time.Hour)
			cancel()
			<-ctx.Done()
			if err := ctx.Err(); err != context.Canceled {
				t.Fatalf("Err() after cancel = %v, want context.Canceled", err)
			}
		})
	}
}

func TestWithTimeoutOfNoTimeHasExpired(t *testing.T) {
	for _, tc := range clocks {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := tc.make()
			for _, d := range []time.Duration{0, -time.Second} {
				ctx, cancel := clock.WithTimeout(context.Background(), c, d)
				select {
				case <-ctx.Done():
				default:
					t.Fatalf("WithTimeout(%v) not done on return", d)
				}
				if err := ctx.Err(); err != context.DeadlineExceeded {
					t.Fatalf("WithTimeout(%v).Err() = %v, want context.DeadlineExceeded", d, err)
				}
				cancel()
			}
		})
	}
}

func TestManualDeadlineFiresOnAdvanceAndCancelDisarmsIt(t *testing.T) {
	m := clock.NewManual(epoch)
	ctx, cancel := clock.WithTimeout(context.Background(), m, time.Minute)
	defer cancel()
	if dl, _ := ctx.Deadline(); !dl.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("Deadline() = %v, want exactly Now()+1m", dl)
	}
	m.BlockUntil(1) // the deadline is a timer on the clock
	m.Advance(time.Minute - time.Nanosecond)
	if ctx.Err() != nil {
		t.Fatal("done a nanosecond before its deadline")
	}
	m.Advance(time.Nanosecond)
	<-ctx.Done()

	_, cancel = clock.WithTimeout(context.Background(), m, time.Minute)
	cancel()
	parked := make(chan struct{})
	go func() { m.BlockUntil(1); close(parked) }()
	select {
	case <-parked:
		t.Fatal("BlockUntil counted a canceled deadline")
	case <-time.After(delay):
	}
	m.AfterFunc(time.Hour, func() {})
	<-parked
}
