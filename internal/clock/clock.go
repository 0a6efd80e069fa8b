// Package clock is the one way the serving layers keep time: a Clock
// to read the instant and run a func later, the wall clock behind it in
// production, a Manual clock tests advance by hand, and the four things
// every layer built on top of a timer — a context-aware Sleep, a
// deadline set by WithTimeout, a period-±-fraction Jitter, and a
// step-on-a-period Loop with a Stop that waits. Lease TTLs, WAL polling,
// ejection and breaker cooldowns, retry backoff, request and RPC
// deadlines, the router's hedge and the retrain cron all run on it, so a
// test (or a simulation) that owns the Clock owns their schedule.
//
// The package imports nothing from this repository; randomness comes in
// as the caller's own draw, so every seeded stream stays with its owner.
package clock

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a time source that can also run a func later.
type Clock interface {
	// Now is the current instant.
	Now() time.Time
	// AfterFunc runs f on its own goroutine once d has elapsed on this
	// clock (at once when d <= 0), unless the Timer is stopped first.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a func armed by AfterFunc. Stop disarms it and reports
// whether that kept f from running; false means f has been started.
// A *time.Timer is one.
type Timer interface{ Stop() bool }

// Wall is the real clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Manual is a Clock that moves only when Advance is called. Goroutines
// under test park on its timers; the test waits for them with
// BlockUntil and releases them with Advance, so a background loop runs
// through any schedule without a wall-clock sleep.
type Manual struct {
	mu      sync.Mutex
	parked  *sync.Cond // signalled when a timer is armed
	now     time.Time
	pending []*manualTimer
}

type manualTimer struct {
	m  *Manual
	at time.Time
	f  func()
}

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.parked = sync.NewCond(&m.mu)
	return m
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc implements Clock.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{m: m, f: f}
	if d <= 0 {
		go f()
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t.at = m.now.Add(d)
	m.pending = append(m.pending, t)
	m.parked.Broadcast()
	return t
}

// Stop implements Timer.
func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	i := slices.Index(t.m.pending, t)
	if i >= 0 {
		t.m.pending = slices.Delete(t.m.pending, i, i+1)
	}
	return i >= 0
}

// Advance moves the clock forward by d and starts every func that came
// due, each on its own goroutine: one that blocks does not hold up the
// clock.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	waiting := m.pending[:0]
	for _, t := range m.pending {
		if t.at.After(m.now) {
			waiting = append(waiting, t)
		} else {
			go t.f()
		}
	}
	m.pending = waiting
}

// BlockUntil waits until at least n funcs are armed and not yet started:
// the goroutines under test have finished their step and are parked.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) < n {
		m.parked.Wait()
	}
}

// Sleep blocks for d on c, or until ctx is done (returning ctx.Err()).
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	elapsed := make(chan struct{})
	defer c.AfterFunc(d, func() { close(elapsed) }).Stop()
	select {
	case <-elapsed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WithTimeout is context.WithTimeout on c, and on Wall it is exactly
// that. On any other clock Done closes from c.AfterFunc(d, …), Err is
// then context.DeadlineExceeded, Deadline is the earlier of ctx's and
// c.Now()+d, a d <= 0 has expired on return, and cancel disarms the
// timer. Admission's doomed-request check is the one reader of a
// Deadline: it subtracts the same clock's Now. net/http does not hand a
// request's deadline to its dialer, so a Manual deadline far from the
// wall does not cut an HTTP call short (a bare net.Dialer's would). A
// context the standard library derives from a fired deadline reports
// context.Canceled, with context.DeadlineExceeded as its Cause.
func WithTimeout(ctx context.Context, c Clock, d time.Duration) (context.Context, context.CancelFunc) {
	if _, ok := c.(Wall); ok {
		return context.WithTimeout(ctx, d)
	}
	dc := &deadlineCtx{deadline: c.Now().Add(d)}
	if pd, ok := ctx.Deadline(); ok && pd.Before(dc.deadline) {
		dc.deadline = pd
	}
	var cancel context.CancelCauseFunc
	dc.Context, cancel = context.WithCancelCause(ctx)
	if d <= 0 {
		cancel(context.DeadlineExceeded)
		return dc, func() {}
	}
	t := c.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return dc, func() {
		t.Stop()
		cancel(nil)
	}
}

// deadlineCtx is a cancelable child of the caller's context; its timer
// cancels it with the cause context.DeadlineExceeded, which Err reports.
type deadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Err() error {
	err := c.Context.Err()
	if err == context.Canceled && context.Cause(c.Context) == context.DeadlineExceeded {
		return context.DeadlineExceeded
	}
	return err
}

// DefaultJitter is the fraction the fleet's own periods are spread by
// unless a flag says otherwise: the follower's WAL poll, the elector's
// step and the retrain cron.
const DefaultJitter = 0.10

// Jitter spreads period uniformly over period·(1 ± frac), given u, the
// caller's uniform draw from [0, 1): a fleet started together then polls,
// heartbeats and retrains out of lockstep while its long-run rate stays
// 1/period. frac is clamped to [0, 1] and the result never falls below
// 1 ms, so a pathological period cannot busy-loop its caller.
func Jitter(period time.Duration, frac, u float64) time.Duration {
	frac = max(0, min(1, frac))
	return max(time.Duration(float64(period)*(1+frac*(2*u-1))), time.Millisecond)
}

// Loop calls a step on a period until it is stopped: the background
// loop of a follower, an elector, the router's prober and the retrain
// cron.
type Loop struct {
	clock Clock
	next  func() time.Duration
	step  func(context.Context)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
}

// NewLoop builds a Loop that waits next() on c between two steps.
func NewLoop(c Clock, next func() time.Duration, step func(context.Context)) *Loop {
	return &Loop{clock: c, next: next, step: step, stop: make(chan struct{}), done: make(chan struct{})}
}

// Run steps after first, then after every next(), until ctx is done or
// Stop is called. It may be called once.
func (l *Loop) Run(ctx context.Context, first time.Duration) {
	l.started.Store(true)
	defer close(l.done)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		// Stop must not wait out a step in flight (a promotion stops the
		// follower on the request path): canceling cuts its I/O short.
		select {
		case <-l.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	for d := first; Sleep(ctx, l.clock, d) == nil; d = l.next() {
		l.step(ctx)
	}
}

// Stop cancels the step in flight and waits for Run to return. Safe to
// call more than once, and a no-wait no-op when Run was never started.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	if l.started.Load() {
		<-l.done
	}
}
