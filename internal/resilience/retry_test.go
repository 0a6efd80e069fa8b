package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/telemetry"
)

// backoffClock is a Manual clock that jumps over every backoff it is
// asked to time, recording the requested delays: retries run in zero
// wall time.
type backoffClock struct {
	*clock.Manual
	delays []time.Duration
}

func (c *backoffClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.delays = append(c.delays, d)
	c.Advance(d)
	return c.Manual.AfterFunc(0, f)
}

func virtualRetrier(pol Policy, seed uint64) (*Retrier, *[]time.Duration) {
	c := &backoffClock{Manual: clock.NewManual(time.Unix(1700000000, 0))}
	return NewRetrier(pol, c, seed), &c.delays
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	r, delays := virtualRetrier(Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond}, 1)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if len(*delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(*delays))
	}
	if (*delays)[0] != 10*time.Millisecond || (*delays)[1] != 20*time.Millisecond {
		t.Errorf("delays = %v, want exponential 10ms, 20ms", *delays)
	}
}

func TestRetryExhaustionKeepsErrorChain(t *testing.T) {
	sentinel := errors.New("backend down")
	r, _ := virtualRetrier(Policy{MaxAttempts: 3}, 1)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("query: %w", sentinel)
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("exhaustion error lost the chain: %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error does not mention the budget: %v", err)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	sentinel := errors.New("no such job")
	r, delays := virtualRetrier(Policy{MaxAttempts: 5}, 1)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (permanent error retried)", calls)
	}
	if !errors.Is(err, sentinel) || !IsPermanent(err) {
		t.Errorf("permanent chain broken: %v", err)
	}
	if len(*delays) != 0 {
		t.Errorf("slept %v before a permanent error", *delays)
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r, _ := virtualRetrier(Policy{MaxAttempts: 10}, 1)
	calls := 0
	err := r.Do(ctx, func(context.Context) error {
		calls++
		cancel() // caller goes away mid-flight
		return errors.New("transient")
	})
	if calls != 1 {
		t.Errorf("calls = %d after cancellation, want 1", calls)
	}
	if err == nil {
		t.Error("canceled retry returned nil")
	}
}

func TestRetryJitterIsDeterministicAndBounded(t *testing.T) {
	pol := Policy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 150 * time.Millisecond, Jitter: 0.5}
	run := func() []time.Duration {
		r, delays := virtualRetrier(pol, 42)
		_ = r.Do(context.Background(), func(context.Context) error { return errors.New("x") })
		return *delays
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("delays = %v, want 3", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed, different jitter: %v vs %v", a, b)
		}
	}
	// First delay jitters around 100ms within ±50%; later ones are capped
	// at 150ms before jitter.
	if a[0] < 50*time.Millisecond || a[0] > 150*time.Millisecond {
		t.Errorf("delay[0] = %v outside jitter bounds", a[0])
	}
	for _, d := range a[1:] {
		if d > 225*time.Millisecond {
			t.Errorf("delay %v exceeds jittered cap", d)
		}
	}
}

func TestDoGenericReturnsValue(t *testing.T) {
	r, _ := virtualRetrier(Policy{MaxAttempts: 3}, 1)
	calls := 0
	v, err := Do(context.Background(), r, func(context.Context) (int, error) {
		calls++
		if calls < 2 {
			return 0, errors.New("flaky")
		}
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Errorf("Do = (%d, %v), want (7, nil)", v, err)
	}
}

func TestInstrumentRetrierCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, _ := virtualRetrier(Policy{MaxAttempts: 3}, 1)
	InstrumentRetrier(reg, "fetch_executed", r)
	calls := 0
	_ = r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	_ = r.Do(context.Background(), func(context.Context) error { return Permanent(errors.New("gone")) })

	get := func(outcome string) int64 {
		return reg.Counter("mcbound_resilience_attempts_total", "", telemetry.Labels{"op": "fetch_executed", "outcome": outcome}).Value()
	}
	if get("ok") != 1 || get("transient") != 2 || get("permanent") != 1 {
		t.Errorf("attempt counters = ok:%d transient:%d permanent:%d", get("ok"), get("transient"), get("permanent"))
	}
	retries := reg.Counter("mcbound_resilience_retries_total", "", telemetry.Labels{"op": "fetch_executed"}).Value()
	if retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
}
