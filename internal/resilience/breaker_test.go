package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcbound/internal/clock"
)

func newFakeClock() *clock.Manual { return clock.NewManual(time.Unix(1700000000, 0)) }
func testBreaker(c *clock.Manual, th int) *Breaker {
	return NewBreaker(BreakerConfig{FailureThreshold: th, Cooldown: 10 * time.Second, Clock: c})
}

func fail(b *Breaker) error {
	if err := b.Allow(); err != nil {
		return err
	}
	b.Record(errors.New("boom"))
	return nil
}

func succeed(b *Breaker) error {
	if err := b.Allow(); err != nil {
		return err
	}
	b.Record(nil)
	return nil
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3)
	for i := 0; i < 2; i++ {
		if err := fail(b); err != nil {
			t.Fatalf("failure %d rejected: %v", i, err)
		}
	}
	if b.State() != Closed {
		t.Fatalf("state = %v before threshold", b.State())
	}
	if err := fail(b); err != nil {
		t.Fatal(err)
	}
	if b.State() != Open {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
	err := b.Allow()
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
	if d, ok := RetryAfter(err); !ok || d <= 0 || d > 10*time.Second {
		t.Errorf("RetryAfter = (%v, %t), want (0, 10s]", d, ok)
	}
	if b.Opens() != 1 {
		t.Errorf("Opens = %d", b.Opens())
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3)
	for i := 0; i < 10; i++ {
		if err := fail(b); err != nil {
			t.Fatal(err)
		}
		if err := fail(b); err != nil {
			t.Fatal(err)
		}
		if err := succeed(b); err != nil {
			t.Fatal(err)
		}
	}
	if b.State() != Closed {
		t.Errorf("non-consecutive failures tripped the breaker: %v", b.State())
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	if err := fail(b); err != nil {
		t.Fatal(err)
	}
	if b.State() != Open {
		t.Fatal("threshold-1 breaker did not trip")
	}
	clk.Advance(10 * time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", b.State())
	}
	// Only one probe at a time.
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open refused the probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("state = %v after successful probe, want closed", b.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	if err := fail(b); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if err := fail(b); err != nil { // the probe fails
		t.Fatal(err)
	}
	if b.State() != Open {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	if b.Opens() != 2 {
		t.Errorf("Opens = %d, want 2", b.Opens())
	}
	// The cooldown restarts from the re-trip.
	clk.Advance(9 * time.Second)
	if b.State() != Open {
		t.Error("cooldown did not restart on re-trip")
	}
}

func TestBreakerCanceledCallsAreNeutral(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(context.Canceled)
	if b.State() != Closed {
		t.Errorf("client cancellation tripped the breaker: %v", b.State())
	}
}

// Guarded records one outcome a logical call: an answer ("no") is a
// success and is not retried, a success after a retry is a success, a
// failure that outlasts the retries is one failure, and an open breaker
// never runs the op.
func TestBreakerDo(t *testing.T) {
	b := testBreaker(newFakeClock(), 1)
	r, _ := virtualRetrier(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}, 1)
	miss, boom := errors.New("miss"), errors.New("boom")
	isMiss := func(err error) bool { return errors.Is(err, miss) }
	calls := 0
	run := func(errs ...error) (int, error) {
		calls = 0
		return Guarded(context.Background(), b, r, isMiss, func(context.Context) (int, error) {
			calls++
			if calls <= len(errs) {
				return 0, errs[calls-1]
			}
			return 7, nil
		})
	}
	if _, err := run(miss, miss); !errors.Is(err, miss) || !IsPermanent(err) || calls != 1 {
		t.Fatalf("an answer: err %v after %d calls, want the miss, permanent, after 1", err, calls)
	}
	if b.State() != Closed {
		t.Fatalf("an answer was charged to the breaker: %v", b.State())
	}
	if v, err := run(boom); err != nil || v != 7 || calls != 2 || b.State() != Closed {
		t.Fatalf("success after a retry: %d, %v after %d calls, breaker %v", v, err, calls, b.State())
	}
	if _, err := run(boom, boom, boom); !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("a failure: err %v after %d calls, want boom after 3", err, calls)
	}
	if b.State() != Open {
		t.Fatalf("three failed attempts of one call left the breaker %v, want one recorded failure to open it", b.State())
	}
	if _, err := run(); !errors.Is(err, ErrOpen) || calls != 0 {
		t.Fatalf("open breaker ran the op %d times: %v", calls, err)
	}
}
