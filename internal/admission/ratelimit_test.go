package admission

import (
	"testing"
	"time"

	"mcbound/internal/clock"
)

func TestRateLimiterRefillAndRetryAfter(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	rl := NewRateLimiter(10, 2, 8, clk)

	for i := 0; i < 2; i++ {
		if ok, _ := rl.Allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.Allow("a")
	if ok {
		t.Fatal("over-burst request allowed")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10 rps", retry)
	}
	// After the hinted wait, one token is back.
	clk.Advance(retry)
	if ok, _ := rl.Allow("a"); !ok {
		t.Fatal("request denied after waiting the hinted Retry-After")
	}
}

func TestRateLimiterLRUEviction(t *testing.T) {
	rl := NewRateLimiter(1, 1, 2, clock.NewManual(time.Unix(0, 0)))
	rl.Allow("a") // a spends its only token
	rl.Allow("b")
	rl.Allow("c") // evicts a (capacity 2)
	if got := rl.Clients(); got != 2 {
		t.Fatalf("clients = %d, want 2", got)
	}
	// a returns with a fresh bucket: its spent token is forgotten.
	if ok, _ := rl.Allow("a"); !ok {
		t.Fatal("re-inserted client denied its burst")
	}
}
