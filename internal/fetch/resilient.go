package fetch

import (
	"context"
	"errors"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
)

// ResilienceConfig tunes the resilient backend decorator. Zero-value
// fields fall back to the resilience package defaults. Kept for
// benchmark/fixture; ROADMAP item 12(b) deletes it with 4(a).
type ResilienceConfig struct {
	// Retry is the per-query retry policy.
	Retry resilience.Policy
	// Breaker is the shared circuit breaker over all three query shapes
	// (one backend = one storage system = one health state). Its Clock
	// also times the retry backoff.
	Breaker resilience.BreakerConfig
	// Seed drives the deterministic backoff jitter.
	Seed uint64
}

// DefaultResilienceConfig returns the serving defaults: 4 attempts with
// jittered exponential backoff, breaker tripping after 5 consecutive
// failed queries with a 10 s cooldown. Kept for benchmark/fixture;
// ROADMAP item 12(b) deletes it with 4(a).
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{Retry: resilience.DefaultPolicy(), Seed: 1}
}

// ResilientBackend decorates a Backend with retries and a circuit
// breaker, so a flaky jobs data storage (the paper's production F-DATA
// store) degrades the Training and Inference workflows instead of
// killing them. Lookup misses (store.ErrNotFound) are classified
// permanent — they are answers, not failures — and are neither retried
// nor counted against the breaker.
type ResilientBackend struct {
	inner Backend
	retr  *resilience.Retrier
	brk   *resilience.Breaker
}

// NewResilientBackend wraps inner with the given policy. Kept for
// benchmark/fixture; ROADMAP item 12(b) deletes it with 4(a).
func NewResilientBackend(inner Backend, cfg ResilienceConfig) *ResilientBackend {
	return &ResilientBackend{
		inner: inner,
		retr:  resilience.NewRetrier(cfg.Retry, cfg.Breaker.Clock, cfg.Seed),
		brk:   resilience.NewBreaker(cfg.Breaker),
	}
}

// Breaker exposes the circuit breaker (health endpoints, telemetry).
func (b *ResilientBackend) Breaker() *resilience.Breaker { return b.brk }

// isMiss names the one answer that is not a failure: a lookup miss is a
// healthy storage saying "no".
func isMiss(err error) bool { return errors.Is(err, store.ErrNotFound) }

// JobByID implements Backend.
func (b *ResilientBackend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	return resilience.Guarded(ctx, b.brk, b.retr, isMiss, func(ctx context.Context) (*job.Job, error) {
		return b.inner.JobByID(ctx, id)
	})
}

// ExecutedBetween implements Backend.
func (b *ResilientBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	return resilience.Guarded(ctx, b.brk, b.retr, isMiss, func(ctx context.Context) ([]*job.Job, error) {
		return b.inner.ExecutedBetween(ctx, start, end)
	})
}

// SubmittedBetween implements Backend.
func (b *ResilientBackend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	return resilience.Guarded(ctx, b.brk, b.retr, isMiss, func(ctx context.Context) ([]*job.Job, error) {
		return b.inner.SubmittedBetween(ctx, start, end)
	})
}
