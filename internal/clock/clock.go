// Package clock is the one way the serving layers keep time: a Clock
// to read the instant and arm a one-shot timer, the wall clock behind
// it in production, a Manual clock tests advance by hand, and the three
// things every layer built on top of a timer — a context-aware Sleep, a
// period-±-fraction Jitter, and a step-on-a-period Loop with a Stop that
// waits. Lease TTLs, WAL polling, ejection and breaker cooldowns, retry
// backoff and the retrain cron all run on it, so a test (or a
// simulation) that owns the Clock owns their schedule.
//
// The package imports nothing from this repository; randomness comes in
// as the caller's own draw, so every seeded stream stays with its owner.
package clock

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a time source that can also wake its caller later.
type Clock interface {
	// Now is the current instant.
	Now() time.Time
	// NewTimer arms a one-shot timer that delivers on C once d has
	// elapsed on this clock (at once when d <= 0).
	NewTimer(d time.Duration) *Timer
}

// Timer is a one-shot timer armed by a Clock.
type Timer struct {
	C    <-chan time.Time
	stop func()
}

// Stop disarms the timer and releases what the clock holds for it. A
// timer that already fired is left as it is.
func (t *Timer) Stop() { t.stop() }

// Wall is the real clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// NewTimer implements Clock.
func (Wall) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: func() { t.Stop() }}
}

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
	at time.Time
	ch chan time.Time
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

// NewTimer implements Clock.
func (m *Manual) NewTimer(d time.Duration) *Timer {
	// One slot: the single send of a one-shot timer never blocks Advance.
	t := &manualTimer{ch: make(chan time.Time, 1)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		t.ch <- m.now
		return &Timer{C: t.ch, stop: func() {}}
	}
	t.at = m.now.Add(d)
	m.pending = append(m.pending, t)
	m.parked.Broadcast()
	return &Timer{C: t.ch, stop: func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, p := range m.pending {
			if p == t {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				return
			}
		}
	}}
}

// Advance moves the clock forward by d and fires every timer that came
// due.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	waiting := m.pending[:0]
	for _, t := range m.pending {
		if t.at.After(m.now) {
			waiting = append(waiting, t)
		} else {
			t.ch <- m.now
		}
	}
	m.pending = waiting
}

// BlockUntil waits until at least n timers are armed and not yet fired:
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
	t := c.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
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
