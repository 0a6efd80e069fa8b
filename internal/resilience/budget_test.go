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

func TestChaseFollowsWithinMembership(t *testing.T) {
	allowed := func(base string) bool { return base == "http://b:1" || base == "http://c:1" }
	c := NewChase("http://a:1", 3, allowed)
	base, ok, err := c.Follow("http://b:1/v1/jobs")
	if err != nil || !ok || base != "http://b:1" {
		t.Fatalf("Follow = (%q, %v, %v), want (http://b:1, true, nil)", base, ok, err)
	}
	// Loop back to an already-visited base: stop, no error.
	if _, ok, err := c.Follow("http://a:1/v1/jobs"); ok || err != nil {
		t.Fatalf("revisit = (ok=%v, err=%v), want benign stop", ok, err)
	}
	if _, ok, err := c.Follow("http://b:1/v1/jobs"); ok || err != nil {
		t.Fatalf("revisit current = (ok=%v, err=%v), want benign stop", ok, err)
	}
}

func TestChaseDeniesNonMember(t *testing.T) {
	allowed := func(base string) bool { return base == "http://b:1" }
	c := NewChase("http://a:1", 3, allowed)
	_, ok, err := c.Follow("http://evil.example:80/v1/jobs")
	if ok {
		t.Fatal("non-member target was followed")
	}
	if !errors.Is(err, ErrRedirectDenied) {
		t.Fatalf("err = %v, want ErrRedirectDenied", err)
	}
	// The denial does not burn a hop: a member target still works.
	if base, ok, err := c.Follow("http://b:1/x"); err != nil || !ok || base != "http://b:1" {
		t.Fatalf("member target after denial = (%q, %v, %v)", base, ok, err)
	}
}

func TestChaseHopBound(t *testing.T) {
	c := NewChase("http://n0:1", 2, nil)
	for i := 1; ; i++ {
		base, ok, err := c.Follow(fmt.Sprintf("http://n%d:1/path", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != 3 {
				t.Fatalf("chase stopped at hop %d, want after 2 follows", i)
			}
			return
		}
		if base == "" {
			t.Fatal("ok with empty base")
		}
		if i > 10 {
			t.Fatal("chase never stopped")
		}
	}
}

func TestChaseIgnoresMalformedLocation(t *testing.T) {
	c := NewChase("http://a:1", 3, nil)
	for _, loc := range []string{"", "/relative/path", "::bad::", "mailto:x@y"} {
		if base, ok, err := c.Follow(loc); ok || err != nil || base != "" {
			t.Fatalf("Follow(%q) = (%q, %v, %v), want benign stop", loc, base, ok, err)
		}
	}
}

func TestRedirectTarget(t *testing.T) {
	cases := map[string]string{
		"http://h:8080/v1/jobs?x=1": "http://h:8080",
		"https://h/":                "https://h",
		"/v1/jobs":                  "",
		"":                          "",
	}
	for loc, want := range cases {
		if got := RedirectTarget(loc); got != want {
			t.Errorf("RedirectTarget(%q) = %q, want %q", loc, got, want)
		}
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
