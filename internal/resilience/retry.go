package resilience

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/stats"
)

// Policy tunes the retry executor. The zero value means "one attempt,
// no backoff"; DefaultPolicy returns the serving defaults.
type Policy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 1 behave as 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff, which doubles after every attempt; 0
	// means no cap.
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over [d·(1−J), d·(1+J)] to
	// decorrelate retry storms; 0 disables, values are clamped to [0, 1].
	Jitter float64
}

// DefaultPolicy returns the fetch-layer defaults: 4 attempts, 50 ms
// base delay doubling to at most 2 s, ±20 % jitter.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
	}
}

// Retrier executes operations under a Policy. It is safe for
// concurrent use: the jitter RNG is guarded by a mutex, and everything
// else is immutable after construction.
type Retrier struct {
	pol    Policy
	budget *Budget

	mu  sync.Mutex
	rng *stats.RNG

	clock clock.Clock // times the backoff

	// OnAttempt, when non-nil, observes every attempt outcome (telemetry
	// hook; attempt is 1-based, err nil on success). Set before first use.
	OnAttempt func(attempt int, err error)
}

// NewRetrier builds a Retrier that backs off on c (nil is the wall
// clock) and whose jitter stream is seeded deterministically from seed
// (all randomness flows through stats.RNG, mirroring the repo-wide
// reproducibility rule).
func NewRetrier(pol Policy, c clock.Clock, seed uint64) *Retrier {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	pol.Jitter = math.Max(0, math.Min(1, pol.Jitter))
	if c == nil {
		c = clock.Wall{}
	}
	return &Retrier{pol: pol, rng: stats.NewRNG(seed), clock: c}
}

// WithBudget attaches a retry budget: every retry beyond the first
// attempt must win a token, and a denied retry returns the attempt's
// own error wrapped with ErrBudgetExhausted. Budgets are shared — many
// retriers can drain one bucket, which is the point: the budget caps
// the *fleet's* retry amplification, not one caller's. Returns r for
// chaining; call before first use.
func (r *Retrier) WithBudget(b *Budget) *Retrier {
	r.budget = b
	return r
}

// Do runs op until it succeeds, exhausts the attempt budget, returns a
// permanent error, or the caller's context ends. The error of the last
// attempt is always in the returned chain, so errors.Is/As against
// domain sentinels keep working through a retry wrapper.
func (r *Retrier) Do(ctx context.Context, op func(ctx context.Context) error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = op(ctx)
		if hook := r.OnAttempt; hook != nil {
			hook(attempt, err)
		}
		if err == nil {
			r.budget.OnSuccess()
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		if ctx.Err() != nil {
			// The caller is gone; do not dress the error up as an
			// exhausted budget.
			return err
		}
		if attempt >= r.pol.MaxAttempts {
			if r.pol.MaxAttempts > 1 {
				return fmt.Errorf("resilience: %d attempts exhausted: %w", r.pol.MaxAttempts, err)
			}
			return err
		}
		if !r.budget.Allow() {
			// The retry budget is dry: surface the attempt's own error
			// rather than re-offering load to a struggling dependency.
			return fmt.Errorf("%w: %w", ErrBudgetExhausted, err)
		}
		if serr := clock.Sleep(ctx, r.clock, r.delay(attempt)); serr != nil {
			return err
		}
	}
}

// Do runs op through r and returns its value, retrying on transient
// errors (the generic-result form of Retrier.Do).
func Do[T any](ctx context.Context, r *Retrier, op func(ctx context.Context) (T, error)) (T, error) {
	var out T
	err := r.Do(ctx, func(ctx context.Context) error {
		v, err := op(ctx)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// delay computes the jittered backoff after the given 1-based attempt.
func (r *Retrier) delay(attempt int) time.Duration {
	d := math.Ldexp(float64(r.pol.BaseDelay), attempt-1)
	if r.pol.MaxDelay > 0 {
		d = math.Min(d, float64(r.pol.MaxDelay))
	}
	if r.pol.Jitter > 0 {
		r.mu.Lock()
		u := r.rng.Float64()
		r.mu.Unlock()
		d *= 1 - r.pol.Jitter + 2*r.pol.Jitter*u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
