package repl_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
)

// A 421 Location pointing outside the configured membership must be a
// hard error, not a hop: following it would let any node that can
// answer a replication request steer the follower's traffic (and its
// future base URL) at an arbitrary address.
func TestClientRefusesRedirectOutsideMembership(t *testing.T) {
	_, leader := newLeaderServer(t, 2)
	evil := serve421(t, func() string { return "" }) // stands in for an attacker's box
	follower := serve421(t, func() string { return evil.URL })

	members, err := cluster.New("n1", []cluster.Member{
		{ID: "n1", URL: follower.URL},
		{ID: "n2", URL: leader.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := repl.NewClient(repl.ClientConfig{
		BaseURL: follower.URL,
		Seed:    3,
		Allowed: members.ContainsURL,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = cl.Manifest(ctx)
	if !errors.Is(err, repl.ErrRedirectDenied) {
		t.Fatalf("redirect to non-member: %v, want ErrRedirectDenied", err)
	}
	if !resilience.IsPermanent(err) {
		t.Fatalf("denial must be permanent, got %v", err)
	}
	if cl.Base() != follower.URL {
		t.Fatalf("denied chase moved the base to %q", cl.Base())
	}
}

// With the allowlist configured, a redirect to a configured member
// still works — the allowlist narrows the chase, it does not break the
// promotion-survival path.
func TestClientFollowsRedirectWithinMembership(t *testing.T) {
	d, leader := newLeaderServer(t, 3)
	follower := serve421(t, func() string { return leader.URL })
	members, err := cluster.New("n1", []cluster.Member{
		{ID: "n1", URL: follower.URL},
		{ID: "n2", URL: leader.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := repl.NewClient(repl.ClientConfig{
		BaseURL: follower.URL,
		Seed:    3,
		Allowed: members.ContainsURL,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, err := cl.Manifest(ctx)
	if err != nil {
		t.Fatalf("Manifest through member redirect: %v", err)
	}
	if m.CommittedSeq != d.CommittedSeq() {
		t.Fatalf("manifest seq %d, want %d", m.CommittedSeq, d.CommittedSeq())
	}
	if cl.Base() != leader.URL {
		t.Fatalf("base = %q, want adopted leader %q", cl.Base(), leader.URL)
	}
}

// A shared retry budget throttles the replication client's retries: a
// dead leader burns the bucket once, after which further requests fail
// fast with the original transport error still in the chain.
func TestClientRetriesRespectSharedBudget(t *testing.T) {
	budget := resilience.NewBudget(resilience.BudgetConfig{Tokens: 2, Ratio: 0.1})
	cl := repl.NewClient(repl.ClientConfig{
		BaseURL: "http://127.0.0.1:1",
		Seed:    3,
		Retry: resilience.Policy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1000},
		Budget:  budget,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Manifest(ctx); !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("first call: %v, want ErrBudgetExhausted after 2 budgeted retries", err)
	}
	// The bucket is dry: the next call gets its one free attempt and no
	// retries, so the budget denial surfaces again without sleeping.
	if _, err := cl.Manifest(ctx); !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("second call: %v, want ErrBudgetExhausted", err)
	}
	if got := budget.Retries(); got != 2 {
		t.Fatalf("budget admitted %d retries, want 2", got)
	}
}
