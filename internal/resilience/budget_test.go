package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestBudgetSpendAndRefill(t *testing.T) {
	b := NewBudget(BudgetConfig{Tokens: 2, Ratio: 0.5})
	if !b.Allow() || !b.Allow() {
		t.Fatal("a full bucket must admit its capacity")
	}
	if b.Allow() {
		t.Fatal("an empty bucket admitted a retry")
	}
	// Two successes at ratio 0.5 earn one whole token back.
	b.OnSuccess()
	if b.Allow() {
		t.Fatal("half a token admitted a retry")
	}
	b.OnSuccess()
	if !b.Allow() {
		t.Fatal("a refilled token was not spendable")
	}
	if got := b.Retries(); got != 3 {
		t.Errorf("Retries = %d, want 3", got)
	}
	if got := b.Exhausted(); got != 2 {
		t.Errorf("Exhausted = %d, want 2", got)
	}
}

func TestBudgetRefillIsCapped(t *testing.T) {
	b := NewBudget(BudgetConfig{Tokens: 3, Ratio: 1})
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 3 {
		t.Fatalf("Tokens after overfill = %g, want capped at 3", got)
	}
}

func TestBudgetDefaults(t *testing.T) {
	b := NewBudget(BudgetConfig{})
	if got := b.Tokens(); got != DefaultBudgetTokens {
		t.Fatalf("default Tokens = %g, want %d", got, DefaultBudgetTokens)
	}
	b.Allow()
	b.OnSuccess()
	if got := b.Tokens(); math.Abs(got-(DefaultBudgetTokens-1+DefaultBudgetRatio)) > 1e-9 {
		t.Fatalf("Tokens after spend+success = %g", got)
	}
}

func TestNilBudgetAdmitsEverything(t *testing.T) {
	var b *Budget
	if !b.Allow() {
		t.Fatal("nil budget denied a retry")
	}
	b.OnSuccess() // must not panic
	if b.Tokens() != 0 || b.Retries() != 0 || b.Exhausted() != 0 {
		t.Fatal("nil budget reported nonzero state")
	}
}

func TestBudgetIsConcurrencySafe(t *testing.T) {
	b := NewBudget(BudgetConfig{Tokens: 50, Ratio: 0.1})
	var wg sync.WaitGroup
	var admitted int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for i := 0; i < 100; i++ {
				if b.Allow() {
					n++
				}
				b.OnSuccess()
			}
			mu.Lock()
			admitted += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	// 800 attempts against 50 tokens + 800×0.1 refill: the bucket can
	// never admit more than capacity plus everything refilled.
	if admitted > 50+80 {
		t.Fatalf("admitted %d retries, budget allows at most 130", admitted)
	}
	if admitted != b.Retries() {
		t.Fatalf("admitted %d but Retries() = %d", admitted, b.Retries())
	}
}

func TestRetrierStopsAtBudgetWithOriginalError(t *testing.T) {
	sentinel := errors.New("backend down")
	r, delays := virtualRetrier(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, 1)
	r.WithBudget(NewBudget(BudgetConfig{Tokens: 2, Ratio: 0.1}))
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("query: %w", sentinel)
	})
	// Attempt 1 is free, attempts 2 and 3 spend the two tokens, the
	// fourth retry is denied.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (1 free + 2 budgeted)", calls)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted in chain", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v lost the original failure", err)
	}
	if len(*delays) != 2 {
		t.Fatalf("slept %d times, want 2 (no sleep for the denied retry)", len(*delays))
	}
}

func TestRetrierSuccessRefillsSharedBudget(t *testing.T) {
	b := NewBudget(BudgetConfig{Tokens: 1, Ratio: 0.5})
	r, _ := virtualRetrier(Policy{MaxAttempts: 3}, 1)
	r.WithBudget(b)
	if err := r.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := b.Tokens(); got != 1 {
		t.Fatalf("Tokens = %g, want capped at 1", got)
	}
	// Burn the token, then two successes earn it back through the
	// retrier's own success hook.
	if !b.Allow() {
		t.Fatal("full bucket denied")
	}
	for i := 0; i < 2; i++ {
		if err := r.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Allow() {
		t.Fatal("two retrier successes at ratio 0.5 did not earn a retry")
	}
}

// Budget denial must not delay the caller: the denied retry returns
// immediately rather than sleeping first.
func TestBudgetDenialReturnsWithoutSleeping(t *testing.T) {
	r := NewRetrier(Policy{MaxAttempts: 4, BaseDelay: time.Hour}, nil, 1)
	r.WithBudget(NewBudget(BudgetConfig{Tokens: 0.5, Ratio: 0.1})) // below one whole token
	done := make(chan error, 1)
	go func() {
		done <- r.Do(context.Background(), func(context.Context) error { return errors.New("x") })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("denied retry slept the backoff")
	}
}
