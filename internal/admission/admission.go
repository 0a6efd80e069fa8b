// Package admission is the overload-protection subsystem of the MCBound
// serving path. The paper's deployment (§III-E) is a single Flask
// backend retrained by cron; under a job-submission storm — HPC
// submission rates are heavy-tailed and bursty — an unprotected server
// queues without bound inside net/http, inflates tail latency past
// every client timeout and competes with retraining for the same
// cores. This package bounds all of that, dependency-free:
//
//   - a fixed concurrency limit (Config.MaxConcurrency);
//   - a bounded, priority-tiered wait queue that sheds LIFO on
//     overflow (newest waiter of the lowest tier loses);
//   - deadline-aware "doomed request" shedding: a request whose
//     remaining deadline is below the current p95 service time (a
//     telemetry.P95Window) is rejected up front instead of burning a
//     worker on a reply nobody will read.
//
// Every rejection is a typed error (ErrQueueFull, ErrDoomed) carrying a
// Retry-After hint via RetryAfter, so the HTTP layer can answer 503 with
// honest back-off advice. All admission decisions are accounted exactly
// once: for any run, admitted + shed(queue_full) + shed(doomed) +
// shed(canceled) == offered.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/telemetry"
)

// Priority orders request tiers. Higher values admit first when slots
// free up. Background work (retraining) is capped to a small share of
// the concurrency limit so a hot-swap can never starve inference, but
// one slot is reserved for it while it waits so inference can never
// starve a retrain either.
type Priority int8

// The serving tiers, least to most urgent.
const (
	// Background is retraining and other deferrable work: strictly
	// capped at backgroundCap of the limit, one reserved slot.
	Background Priority = iota
	// Batch is bulk traffic: job inserts, range/pagination queries.
	Batch
	// Interactive is the inference hot path: classify requests.
	Interactive
	// Critical is never queued, shed or counted against the limit
	// (health probes must answer even at saturation).
	Critical
)

// Typed rejection sentinels; branch with errors.Is. The HTTP layer maps
// both to 503 overloaded with Retry-After.
var (
	// ErrQueueFull rejects a request that found the wait queue at
	// capacity with no lower-priority waiter to displace.
	ErrQueueFull = errors.New("admission: wait queue full")
	// ErrDoomed rejects a request whose remaining deadline cannot cover
	// the current p95 service time.
	ErrDoomed = errors.New("admission: remaining deadline below p95 service time")
)

// retryAfterErr decorates a rejection with a back-off hint.
type retryAfterErr struct {
	err   error
	after time.Duration
}

func (e *retryAfterErr) Error() string { return e.err.Error() }
func (e *retryAfterErr) Unwrap() error { return e.err }

func withRetryAfter(err error, after time.Duration) error {
	if after < time.Second {
		after = time.Second
	}
	return &retryAfterErr{err: err, after: after}
}

// RetryAfter extracts the back-off hint attached to a rejection, for
// the HTTP Retry-After header. ok is false for non-admission errors.
func RetryAfter(err error) (time.Duration, bool) {
	var ra *retryAfterErr
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// Config tunes a Controller. The zero value selects every default.
type Config struct {
	// MaxConcurrency is the concurrency limit: the slots held at once
	// across the Background, Batch and Interactive tiers. Default 64.
	MaxConcurrency int

	// QueueDepth caps the total number of waiting requests across all
	// tiers. Default 128.
	QueueDepth int

	// Clock is the time source, injectable for tests. Default the wall
	// clock.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.Clock == nil {
		c.Clock = clock.Wall{}
	}
	return c
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config { return Config{}.withDefaults() }

// Stats is a consistent snapshot of the admission accounting counters.
// Offered counts every non-critical Admit call; the identity
// Offered == Admitted + ShedQueueFull + ShedDoomed + ShedCanceled holds
// at every quiescent point.
type Stats struct {
	Offered       int64
	Admitted      int64
	Bypassed      int64 // critical-tier requests (not in Offered)
	ShedQueueFull int64
	ShedDoomed    int64
	ShedCanceled  int64 // caller gave up while waiting (no deadline involved)
}

// Shed sums the rejection counters.
func (s Stats) Shed() int64 {
	return s.ShedQueueFull + s.ShedDoomed + s.ShedCanceled
}

// Controller is the admission gate every request passes through. Safe
// for concurrent use.
type Controller struct {
	cfg   Config
	p95   *telemetry.P95Window
	clock clock.Clock

	// onQueueWait, when set, observes the queue wait of every admitted
	// request that had to wait (seconds).
	onQueueWait func(seconds float64)

	mu       sync.Mutex
	inflight int // slots held, all tiers except Critical
	bg       int // slots held by Background
	queue    waitQueue

	offered, admitted, bypassed             atomic.Int64
	shedQueueFull, shedDoomed, shedCanceled atomic.Int64
}

// NewController builds a Controller from cfg (zero value = defaults).
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:   cfg,
		p95:   telemetry.NewP95Window(),
		clock: cfg.Clock,
	}
}

// P95 is the p95 service time of the last full window of completed
// requests; 0 while the window is cold.
func (c *Controller) P95() time.Duration { return c.p95.P95() }

// SetQueueWaitHook installs the queue-wait observer (the telemetry
// histogram). Call before the controller starts admitting traffic; the
// hook is read without synchronization on the admit path.
func (c *Controller) SetQueueWaitHook(fn func(seconds float64)) { c.onQueueWait = fn }

// Inflight returns the slots currently held.
func (c *Controller) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// QueueLen returns the number of waiting requests across all tiers.
func (c *Controller) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.len()
}

// Stats snapshots the accounting counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Offered:       c.offered.Load(),
		Admitted:      c.admitted.Load(),
		Bypassed:      c.bypassed.Load(),
		ShedQueueFull: c.shedQueueFull.Load(),
		ShedDoomed:    c.shedDoomed.Load(),
		ShedCanceled:  c.shedCanceled.Load(),
	}
}

// Ticket is a held admission slot. Release must be called exactly once
// when the request finishes; it feeds the service latency into the p95
// window and hands the slot to the next waiter.
type Ticket struct {
	c        *Controller
	pri      Priority
	granted  time.Time
	released atomic.Bool
}

// Release returns the slot and records the observed service time.
func (t *Ticket) Release() {
	if t == nil || !t.released.CompareAndSwap(false, true) {
		return
	}
	if t.pri == Critical {
		return // never held a slot
	}
	c := t.c
	c.p95.Observe(c.clock.Now().Sub(t.granted))
	c.mu.Lock()
	c.inflight--
	if t.pri == Background {
		c.bg--
	}
	c.grantLocked()
	c.mu.Unlock()
}

// backgroundCap is the strict ceiling on Background slots: a quarter
// of the limit, at least one. Retraining therefore never holds
// more than ~25% of serving capacity.
func backgroundCap(limit int) int {
	cap := limit / 4
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Admit requests a slot at the given priority. The third argument is
// unused. The call blocks while queued; ctx bounds the wait, and the
// request's context deadline drives doomed-request shedding. On success
// the returned Ticket must be Released.
func (c *Controller) Admit(ctx context.Context, pri Priority, _ string) (*Ticket, error) {
	if pri == Critical {
		// Health probes and other must-answer traffic: no slot, no
		// queue, no shedding — only accounting.
		c.bypassed.Add(1)
		return &Ticket{c: c, pri: pri, granted: c.clock.Now()}, nil
	}
	c.offered.Add(1)

	now := c.clock.Now()
	deadline, hasDeadline := ctx.Deadline()
	p95 := c.p95.P95()

	// Doomed pre-check: a request whose remaining deadline cannot cover
	// even one p95 service time will miss its deadline no matter what —
	// shed it before it costs a slot or a queue position.
	if hasDeadline {
		remaining := deadline.Sub(now)
		if remaining <= 0 || (p95 > 0 && remaining < p95) {
			c.shedDoomed.Add(1)
			return nil, withRetryAfter(fmt.Errorf("%w: %v remaining, p95 %v", ErrDoomed, remaining, p95), p95)
		}
	}

	c.mu.Lock()
	limit := c.cfg.MaxConcurrency
	// Fast path: free capacity and nobody waiting ahead of us.
	if c.queue.len() == 0 && c.admissibleLocked(pri, limit) {
		c.takeSlotLocked(pri)
		c.mu.Unlock()
		c.admitted.Add(1)
		return &Ticket{c: c, pri: pri, granted: now}, nil
	}

	// Bounded queue: on overflow the newest waiter of the lowest tier
	// strictly below the incomer is displaced (LIFO shed). An incomer
	// with nobody below it sheds — unless its own tier is empty: every
	// tier keeps one guaranteed seat past the cap (total bound
	// QueueDepth+2), so a retrain is never permanently locked out by an
	// interactive flood.
	if c.queue.len() >= c.cfg.QueueDepth {
		if victim := c.queue.evictNewestBelow(pri); victim != nil {
			victim.finish(withRetryAfter(ErrQueueFull, c.drainEstimate(limit, p95)))
			c.shedQueueFull.Add(1)
		} else if c.queue.lenTier(pri) > 0 {
			est := c.drainEstimate(limit, p95)
			c.mu.Unlock()
			c.shedQueueFull.Add(1)
			return nil, withRetryAfter(ErrQueueFull, est)
		}
	}
	w := &waiter{
		pri:      pri,
		deadline: deadline,
		hasDl:    hasDeadline,
		enqueued: now,
		done:     make(chan error, 1),
	}
	c.queue.push(w)
	// Drain immediately: the queue may hold only waiters ineligible for
	// the free slots (e.g. a background request at its cap), in which
	// case this incomer is grantable right now and must not park until
	// the next Release.
	c.grantLocked()
	c.mu.Unlock()

	select {
	case err := <-w.done:
		if err != nil {
			// Shed while waiting; already accounted by the shedder.
			return nil, err
		}
		if c.onQueueWait != nil {
			c.onQueueWait(w.grantedAt.Sub(w.enqueued).Seconds())
		}
		c.admitted.Add(1)
		return &Ticket{c: c, pri: pri, granted: w.grantedAt}, nil
	case <-ctx.Done():
		c.mu.Lock()
		removed := c.queue.remove(w)
		c.mu.Unlock()
		if !removed {
			// Raced with a grant (or a shed): honor whatever the queue
			// decided so the slot and the accounting stay consistent.
			err := <-w.done
			if err != nil {
				return nil, err
			}
			c.admitted.Add(1)
			return &Ticket{c: c, pri: pri, granted: w.grantedAt}, nil
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The deadline expired while waiting: the request was doomed,
			// we just found out late.
			c.shedDoomed.Add(1)
			return nil, withRetryAfter(fmt.Errorf("%w: deadline expired in queue", ErrDoomed), c.p95.P95())
		}
		c.shedCanceled.Add(1)
		return nil, fmt.Errorf("admission: abandoned while queued: %w", ctx.Err())
	}
}

// admissibleLocked reports whether pri may take a slot right now,
// ignoring the queue (the caller checks queue order).
func (c *Controller) admissibleLocked(pri Priority, limit int) bool {
	if c.inflight >= limit {
		return false
	}
	if pri == Background {
		return c.bg < backgroundCap(limit)
	}
	// One slot stays reserved for a waiting retrain (see grantLocked).
	if limit >= 2 && c.queue.lenTier(Background) > 0 && c.bg < backgroundCap(limit) {
		return limit-c.inflight > 1
	}
	return true
}

func (c *Controller) takeSlotLocked(pri Priority) {
	c.inflight++
	if pri == Background {
		c.bg++
	}
}

// grantLocked hands freed capacity to waiters: interactive first, then
// batch; background is granted from its reserved share (one slot held
// back for it whenever it waits) and never beyond backgroundCap. A
// waiter whose remaining deadline dropped below p95 while queued is
// shed as doomed instead of being granted a slot it cannot use.
func (c *Controller) grantLocked() {
	p95 := c.p95.P95()
	now := c.clock.Now()
	limit := c.cfg.MaxConcurrency
	for {
		if c.inflight >= limit {
			return
		}
		w := c.pickLocked(limit)
		if w == nil {
			return
		}
		c.queue.remove(w)
		if w.hasDl {
			remaining := w.deadline.Sub(now)
			if remaining <= 0 || (p95 > 0 && remaining < p95) {
				c.shedDoomed.Add(1)
				w.finish(withRetryAfter(fmt.Errorf("%w: %v remaining at grant, p95 %v", ErrDoomed, remaining, p95), p95))
				continue
			}
		}
		c.takeSlotLocked(w.pri)
		w.grantedAt = now
		w.finish(nil)
	}
}

// pickLocked selects the next waiter eligible for a free slot.
func (c *Controller) pickLocked(limit int) *waiter {
	free := limit - c.inflight
	bgWaiting := c.queue.lenTier(Background) > 0
	bgCap := backgroundCap(limit)
	reserve := 0
	if limit >= 2 && bgWaiting && c.bg < bgCap {
		reserve = 1
	}
	if free > reserve {
		for _, t := range []Priority{Interactive, Batch} {
			if w := c.queue.oldest(t); w != nil {
				return w
			}
		}
	}
	if bgWaiting && c.bg < bgCap {
		return c.queue.oldest(Background)
	}
	return nil
}

// drainEstimate guesses how long the present queue takes to drain, for
// the Retry-After hint on queue_full rejections.
func (c *Controller) drainEstimate(limit int, p95 time.Duration) time.Duration {
	if p95 <= 0 || limit <= 0 {
		return time.Second
	}
	rounds := c.queue.len()/limit + 1
	return time.Duration(rounds) * p95
}
