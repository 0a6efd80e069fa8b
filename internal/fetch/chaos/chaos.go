// Package chaos is a deterministic fault-injection decorator for
// fetch.Backend, used to drive the chaos suite: it replays the online
// algorithm against a jobs data storage that fails the way a production
// store does (paper §V deploys against Fugaku's live job database).
// Faults are drawn from a seeded stats.RNG, so a given seed produces
// the exact same fault schedule on every run — tests assert the
// framework's degraded-mode accounting against that schedule.
//
// Two fault kinds are injected per backend method:
//
//   - transient errors, drawn per call with Profile.TransientRate —
//     the retry layer is expected to absorb these;
//   - permanent errors, every Profile.PermanentEveryN-th call — marked
//     with resilience.Permanent so the retry layer fails fast, modelling
//     outages no retry survives (the skipped-retrain path).
//
// An optional per-call latency models a slow store and honors context
// cancellation, so per-attempt timeouts are exercisable too.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/resilience"
	"mcbound/internal/stats"
)

// ErrInjected is the root of every injected fault; tests branch with
// errors.Is to tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Method names a Backend query shape for per-method profiles/counters.
type Method string

// The three fetch.Backend methods.
const (
	MethodJobByID   Method = "job_by_id"
	MethodExecuted  Method = "executed_between"
	MethodSubmitted Method = "submitted_between"
)

// Profile configures the fault mix of one method.
type Profile struct {
	// TransientRate is the probability in [0, 1] that a call fails with
	// a retryable error.
	TransientRate float64
	// PermanentEveryN fails every N-th call (counting all calls to the
	// method, including ones that drew a transient fault) with an error
	// marked resilience.Permanent; 0 disables.
	PermanentEveryN int
	// Latency delays every call before the fault draw, honoring ctx.
	Latency time.Duration
}

// Counters aggregates one method's injection traffic.
type Counters struct {
	Calls     int64 // total calls observed
	Transient int64 // calls failed with a retryable error
	Permanent int64 // calls failed with a permanent error
}

// Backend decorates a fetch.Backend with deterministic fault injection.
// It is safe for concurrent use; note that under concurrency the fault
// schedule depends on call interleaving (single-threaded replays stay
// fully reproducible).
type Backend struct {
	inner fetch.Backend

	mu       sync.Mutex
	rng      *stats.RNG
	profiles map[Method]Profile
	counts   map[Method]*Counters
}

// New wraps inner with no faults configured; Set the profiles next.
func New(inner fetch.Backend, seed uint64) *Backend {
	return &Backend{
		inner:    inner,
		rng:      stats.NewRNG(seed),
		profiles: make(map[Method]Profile),
		counts: map[Method]*Counters{
			MethodJobByID:   {},
			MethodExecuted:  {},
			MethodSubmitted: {},
		},
	}
}

// Set configures the fault profile of one method.
func (b *Backend) Set(m Method, p Profile) {
	b.mu.Lock()
	b.profiles[m] = p
	b.mu.Unlock()
}

// SetAll configures the same fault profile on every method.
func (b *Backend) SetAll(p Profile) {
	for _, m := range []Method{MethodJobByID, MethodExecuted, MethodSubmitted} {
		b.Set(m, p)
	}
}

// Counters returns a snapshot of one method's injection traffic.
func (b *Backend) Counters(m Method) Counters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return *b.counts[m]
}

// inject draws the fault for one call: nil, a transient error, or a
// permanent one.
func (b *Backend) inject(ctx context.Context, m Method) error {
	b.mu.Lock()
	p := b.profiles[m]
	c := b.counts[m]
	c.Calls++
	n := c.Calls
	permanent := p.PermanentEveryN > 0 && n%int64(p.PermanentEveryN) == 0
	transient := !permanent && p.TransientRate > 0 && b.rng.Float64() < p.TransientRate
	switch {
	case permanent:
		c.Permanent++
	case transient:
		c.Transient++
	}
	b.mu.Unlock()

	if p.Latency > 0 {
		if err := clock.Sleep(ctx, clock.Wall{}, p.Latency); err != nil {
			return err
		}
	}
	switch {
	case permanent:
		return resilience.Permanent(fmt.Errorf("%w: permanent outage (%s call %d)", ErrInjected, m, n))
	case transient:
		return fmt.Errorf("%w: transient failure (%s call %d)", ErrInjected, m, n)
	}
	return nil
}

// JobByID implements fetch.Backend.
func (b *Backend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	if err := b.inject(ctx, MethodJobByID); err != nil {
		return nil, err
	}
	return b.inner.JobByID(ctx, id)
}

// ExecutedBetween implements fetch.Backend.
func (b *Backend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if err := b.inject(ctx, MethodExecuted); err != nil {
		return nil, err
	}
	return b.inner.ExecutedBetween(ctx, start, end)
}

// SubmittedBetween implements fetch.Backend.
func (b *Backend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if err := b.inject(ctx, MethodSubmitted); err != nil {
		return nil, err
	}
	return b.inner.SubmittedBetween(ctx, start, end)
}
