package router

// The RouterChaos suite (make chaos-router) drives the front door
// through the seeded failure scenarios the design commits to: a dead
// backend plus a 10×-slow backend with zero client-observed read
// errors and a bounded p99, and a leader kill mid-writes with at most
// one hard write failure.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"mcbound/internal/resilience"
)

func p99(durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(float64(len(s)-1)*0.99)]
}

func TestRouterChaosDeadAndSlowBackends(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	rt, front := mkRouter(t, Config{
		HedgeAfterMin: 5 * time.Millisecond,
		RetryBudget:   resilience.BudgetConfig{Tokens: 20, Ratio: 0.1},
		Seed:          1337,
	}, n1, n2, n3)

	read := func(i int) (time.Duration, int) {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/model", nil)
		req.Header.Set("X-Client-Id", fmt.Sprintf("tenant-%d", i%17))
		start := time.Now()
		resp, err := front.Client().Do(req)
		if err != nil {
			return time.Since(start), 0
		}
		resp.Body.Close()
		return time.Since(start), resp.StatusCode
	}

	// Healthy baseline: also fills the latency windows the hedge delay
	// adapts to.
	const warm = 200
	healthy := make([]time.Duration, 0, warm)
	for i := 0; i < warm; i++ {
		d, code := read(i)
		if code != http.StatusOK {
			t.Fatalf("healthy read %d: status %d", i, code)
		}
		healthy = append(healthy, d)
	}
	healthyP99 := p99(healthy)

	// Chaos: one backend dies outright, one turns 10× slow.
	slowBy := 10 * healthyP99
	if slowBy < 20*time.Millisecond {
		slowBy = 20 * time.Millisecond
	}
	n3.set(func(b *stubBackend) { b.downFlag = true })
	n2.set(func(b *stubBackend) { b.delay = slowBy })
	rt.RefreshNow(context.Background())

	const degradedReads = 300
	degraded := make([]time.Duration, 0, degradedReads)
	for i := 0; i < degradedReads; i++ {
		d, code := read(i)
		if code != http.StatusOK {
			t.Fatalf("degraded read %d: status %d — the acceptance bar is a zero client-observed error rate", i, code)
		}
		degraded = append(degraded, d)
	}

	// p99 bound: 3× the healthy p99, floored so a sub-millisecond local
	// baseline does not make the bound unmeetable on a loaded CI box.
	floor := healthyP99
	if floor < 5*time.Millisecond {
		floor = 5 * time.Millisecond
	}
	if got := p99(degraded); got > 3*floor {
		t.Fatalf("degraded p99 %v exceeds 3× healthy p99 bound %v", got, 3*floor)
	}

	// Retries never exceed the configured budget: capacity plus the
	// refill fraction of every success.
	total := int64(warm + degradedReads)
	bound := int64(20) + int64(math.Ceil(0.1*float64(total))) + 1
	if got := rt.Budget().Retries(); got > bound {
		t.Fatalf("%d retries admitted, budget bounds them at %d", got, bound)
	}
}

func TestRouterChaosLeaderKillMidWrites(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	rt, front := mkRouter(t, Config{
		PollEvery: 30 * time.Millisecond,
		Seed:      99,
	}, n1, n2, n3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)

	write := func() int {
		resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`[]`))
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	hardFailures, brownouts := 0, 0
	const writes = 40
	for i := 0; i < writes; i++ {
		if i == 10 {
			// Kill the leader and promote n2, as the elector would.
			n2URL := n2.url()
			n1.set(func(b *stubBackend) { b.downFlag = true })
			n2.set(func(b *stubBackend) { b.role = "leader"; b.leaseHeld = true; b.leaderURL = n2URL })
			n3.set(func(b *stubBackend) { b.leaderURL = n2URL })
		}
		switch code := write(); {
		case code == http.StatusOK:
		case code == http.StatusServiceUnavailable:
			// Typed brownout: designed fail-fast, the client backs off
			// and retries. Not a hard failure.
			brownouts++
			time.Sleep(30 * time.Millisecond)
		default:
			// 502 / transport error: the in-flight write the kill caught.
			hardFailures++
			time.Sleep(40 * time.Millisecond) // give the re-point a probe round
		}
		time.Sleep(2 * time.Millisecond)
	}
	if hardFailures > 1 {
		t.Fatalf("leader kill surfaced %d hard write failures (brownouts: %d), want ≤ 1", hardFailures, brownouts)
	}
	// The fleet re-pointed: the last write must have landed on n2.
	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(BackendHeader) != "n2" {
		t.Fatalf("post-failover write: status %d backend %q, want 200 from n2", resp.StatusCode, resp.Header.Get(BackendHeader))
	}
}
