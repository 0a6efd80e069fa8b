package resilience

import (
	"context"
	"errors"
	"sync"
	"time"

	"mcbound/internal/clock"
)

// State is the circuit breaker position.
type State int

// The three breaker states. Numeric values are stable: the
// mcbound_breaker_state gauge exports them directly.
const (
	Closed   State = 0 // calls flow, consecutive failures counted
	HalfOpen State = 1 // cooldown elapsed, one probe in flight; its success closes
	Open     State = 2 // calls rejected until the cooldown elapses
)

// String names the state for health endpoints and logs.
func (s State) String() string {
	switch s {
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes the circuit breaker. The zero value is usable:
// defaults are filled in by NewBreaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker; below 1 behaves as 5.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe; below 1ns behaves as 10 s.
	Cooldown time.Duration
	// Clock overrides the wall clock (deterministic tests).
	Clock clock.Clock
}

// Breaker is a three-state circuit breaker, safe for concurrent use.
// Callers pair Allow with Record, or use Guarded for both.
//
// Classification: a nil error and a context.Canceled error are neutral
// for the failure count (a client giving up says nothing about backend
// health); every other error — including deadline overruns and errors
// marked Permanent — counts as a failure.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	probing  bool      // a half-open probe is in flight
	openedAt time.Time // instant of the closed/half-open → open trip
	opens    int64     // lifetime trip count

	// OnStateChange, when non-nil, observes every transition (telemetry
	// hook; called outside the breaker lock). Set before first use.
	OnStateChange func(from, to State)
}

// NewBreaker builds a Breaker, filling config defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold < 1 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	return &Breaker{cfg: cfg}
}

// Allow asks whether a call may proceed. It returns nil (and, in
// half-open, reserves the probe slot) or an *OpenError carrying the
// time until the next admission. Every successful Allow must be paired
// with exactly one Record.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	b.tickLocked()
	switch b.state {
	case Open:
		wait := b.cfg.Cooldown - b.cfg.Clock.Now().Sub(b.openedAt)
		b.mu.Unlock()
		if wait < 0 {
			wait = 0
		}
		return &OpenError{RetryAfter: wait}
	case HalfOpen:
		if b.probing {
			// The probe in flight resolves on the order of one call, not
			// one cooldown; hint accordingly.
			b.mu.Unlock()
			return &OpenError{RetryAfter: time.Second}
		}
		b.probing = true
	}
	b.mu.Unlock()
	return nil
}

// Record reports the outcome of a call admitted by Allow.
func (b *Breaker) Record(err error) {
	neutral := err != nil && errors.Is(err, context.Canceled)
	b.mu.Lock()
	from := b.state
	switch b.state {
	case Closed:
		switch {
		case err == nil:
			b.fails = 0
		case neutral:
		default:
			b.fails++
			if b.fails >= b.cfg.FailureThreshold {
				b.tripLocked()
			}
		}
	case HalfOpen:
		b.probing = false
		switch {
		case err == nil:
			b.state = Closed
			b.fails = 0
		case neutral:
		default:
			b.tripLocked()
		}
	case Open:
		// A call admitted before the trip finished late; outcome is moot.
	}
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
}

// Guarded runs op as one logical call to the dependency b guards:
// breaker admission, then r's retry loop, then one Record of what came
// out of it — a call that needed two attempts and succeeded is a
// success. answered names the errors that are the dependency answering
// "no" (a lookup miss, a redirect to the real leader): they are not
// retried and not charged to the breaker.
func Guarded[T any](ctx context.Context, b *Breaker, r *Retrier, answered func(error) bool, op func(ctx context.Context) (T, error)) (T, error) {
	if err := b.Allow(); err != nil {
		var zero T
		return zero, err
	}
	v, err := Do(ctx, r, func(ctx context.Context) (T, error) {
		v, err := op(ctx)
		if err != nil && answered(err) {
			err = Permanent(err)
		}
		return v, err
	})
	if err != nil && answered(err) {
		b.Record(nil)
	} else {
		b.Record(err)
	}
	return v, err
}

// State returns the current position, applying the time-based
// open → half-open transition first.
func (b *Breaker) State() State {
	b.mu.Lock()
	b.tickLocked()
	s := b.state
	b.mu.Unlock()
	return s
}

// Opens returns the lifetime number of trips to Open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Reset closes the breaker and clears its counters (the lifetime trip
// count survives). Callers use it when the guarded endpoint changes
// identity — e.g. a replication client redirected to a new leader —
// so failures charged to the old endpoint do not block the new one.
func (b *Breaker) Reset() {
	b.mu.Lock()
	from := b.state
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
	b.notify(from, Closed)
}

// tripLocked moves to Open from any state. Caller holds b.mu.
func (b *Breaker) tripLocked() {
	b.state = Open
	b.fails = 0
	b.probing = false
	b.openedAt = b.cfg.Clock.Now()
	b.opens++
}

// tickLocked applies the cooldown expiry. Caller holds b.mu; the
// resulting transition is not reported through OnStateChange (it is a
// read-side effect, observed by the next Allow/State caller).
func (b *Breaker) tickLocked() {
	if b.state == Open && b.cfg.Clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.state = HalfOpen
		b.probing = false
	}
}

func (b *Breaker) notify(from, to State) {
	if from != to {
		if hook := b.OnStateChange; hook != nil {
			hook(from, to)
		}
	}
}
