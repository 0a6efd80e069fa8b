package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcbound/internal/httpapi"
	"mcbound/internal/peer"
	"mcbound/internal/resilience"
)

func TestReadsPreferFreshFollowersWithAffinity(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	_, front := mkRouter(t, Config{}, n1, n2, n3)

	served := map[string]bool{}
	for i := 0; i < 8; i++ {
		resp, body := get(t, front, "/v1/model", "tenant-a")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d (%s)", i, resp.StatusCode, body)
		}
		served[resp.Header.Get(BackendHeader)] = true
	}
	if len(served) != 1 {
		t.Fatalf("one client key hit %d backends %v, want sticky affinity", len(served), served)
	}
	if served["n1"] {
		t.Fatal("reads landed on the leader while fresh followers were available")
	}

	// A different tenant may land elsewhere, but still never on the leader.
	for i := 0; i < 8; i++ {
		resp, _ := get(t, front, "/v1/model", "tenant-b")
		if b := resp.Header.Get(BackendHeader); b == "n1" {
			t.Fatal("tenant-b read landed on the leader")
		}
	}
}

func TestLaggingFollowerExcludedFromReads(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	n3.set(func(b *stubBackend) { b.lag = 60 }) // way past the cut
	rt, front := mkRouter(t, Config{MaxReadLag: 2 * time.Second}, n1, n2, n3)
	rt.RefreshNow(context.Background())

	for i := 0; i < 12; i++ {
		resp, _ := get(t, front, "/v1/model", "k"+string(rune('a'+i)))
		if b := resp.Header.Get(BackendHeader); b == "n3" {
			t.Fatal("a lagging follower served a bounded-staleness read")
		}
		if resp.Header.Get(StalenessHeader) != "" {
			t.Fatal("fresh read carried a staleness header")
		}
	}
}

func TestWritesGoToLeader(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	_, front := mkRouter(t, Config{}, n1, n2, n3)

	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write status %d", resp.StatusCode)
	}
	if b := resp.Header.Get(BackendHeader); b != "n1" {
		t.Fatalf("write served by %q, want leader n1", b)
	}
}

// post sends one empty write through the front door.
func post(t *testing.T, front *httptest.Server) (*http.Response, []byte) {
	t.Helper()
	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// depose moves leadership from n1 to n2 behind the router's back: its
// probe state is stale, and n1 answers the next write 421.
func depose(n1, n2, n3 *stubBackend) {
	n2URL := n2.url()
	n1.set(func(b *stubBackend) { b.role = "follower"; b.leaseHeld = false; b.leaderURL = n2URL })
	n2.set(func(b *stubBackend) { b.role = "leader"; b.leaseHeld = true; b.leaderURL = n2URL })
	n3.set(func(b *stubBackend) { b.leaderURL = n2URL })
}

func TestWriteReprobesOn421(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	_, front := mkRouter(t, Config{}, n1, n2, n3) // probes now say "n1 leads"
	depose(n1, n2, n3)

	resp, body := post(t, front)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write after a 421: status %d (%s)", resp.StatusCode, body)
	}
	if b := resp.Header.Get(BackendHeader); b != "n2" {
		t.Fatalf("write after a 421 served by %q, want n2", b)
	}
	// The re-probe sticks: the next write goes straight to n2.
	before := n1.hitCount()
	if resp, _ := post(t, front); resp.Header.Get(BackendHeader) != "n2" || n1.hitCount() != before {
		t.Fatalf("second write served by %q, deposed leader hit %d more times", resp.Header.Get(BackendHeader), n1.hitCount()-before)
	}
}

// Eight writes that meet a 421 together share the probe round one of
// them runs: each member is probed at most twice, not eight times.
func TestConcurrent421sShareAProbeRound(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	_, front := mkRouter(t, Config{}, n1, n2, n3)
	depose(n1, n2, n3)
	gate := make(chan struct{})
	n1.set(func(b *stubBackend) { b.gate = gate }) // all eight reach n1 before any is answered
	probed := []int{n1.probeCount(), n2.probeCount(), n3.probeCount()}

	const writes = 8
	codes := make(chan int, writes)
	for range writes {
		go func() {
			resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`[]`))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for n1.hitCount() < writes {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writes reached n1", n1.hitCount(), writes)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for range writes {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("write status %d, want 200 from the re-probed leader", code)
		}
	}
	for i, s := range []*stubBackend{n1, n2, n3} {
		if rounds := s.probeCount() - probed[i]; rounds > 2 {
			t.Errorf("%s probed %d times for %d concurrent 421s, want at most 2", s.id, rounds, writes)
		}
	}
	if got := n2.hitCount(); got != writes {
		t.Errorf("n2 took %d writes, want %d", got, writes)
	}
}

func TestWriteRefusesRedirectOutsideMembership(t *testing.T) {
	evil := newStubBackend(t, "evil") // never configured as a backend
	for name, leader := range map[string]string{
		"a live non-member":        evil.url(),
		"a base that is not UTF-8": "http://h\xff",
	} {
		t.Run(name, func(t *testing.T) {
			n1, n2, n3 := threeNode(t)
			_, front := mkRouter(t, Config{}, n1, n2, n3) // probes say "n1 leads"

			// n1 turns hostile (or just confused): it 421s writes at a URL
			// that is not part of the cluster. The re-probe finds no other
			// member to resend to, so the write browns out.
			n1.set(func(b *stubBackend) { b.role = "follower"; b.leaseHeld = false; b.leaderURL = leader })

			resp, body := post(t, front)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			// The envelope is JSON whatever the member reported, so a peer
			// client reads its code.
			var e peer.ErrorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Code != httpapi.CodeNoLeader {
				t.Fatalf("body %q decodes to code %q (%v), want %q", body, e.Code, err, httpapi.CodeNoLeader)
			}
			if evil.hitCount() != 0 {
				t.Fatal("router contacted a non-member URL")
			}
		})
	}
}

func TestBrownout(t *testing.T) {
	// No member is leader: writes fail fast and typed, reads keep serving.
	n1, n2, n3 := threeNode(t)
	for _, n := range []*stubBackend{n1, n2, n3} {
		n.set(func(b *stubBackend) { b.role = "follower"; b.leaseHeld = false; b.leaderURL = "" })
	}
	rt, front := mkRouter(t, Config{}, n1, n2, n3)
	rt.RefreshNow(context.Background())

	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != "no_leader" {
		t.Fatalf("brownout write: status %d code %q, want 503 no_leader", resp.StatusCode, e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("brownout write carried no Retry-After")
	}

	rresp, _ := get(t, front, "/v1/model", "k")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("brownout read status %d, want reads to keep serving", rresp.StatusCode)
	}
}

func TestStaleReadFallbackSetsStalenessHeader(t *testing.T) {
	// Every follower is past the staleness cut and there is no leader:
	// the freshest follower still serves, flagged.
	n1, n2, n3 := threeNode(t)
	for _, n := range []*stubBackend{n1, n2, n3} {
		n.set(func(b *stubBackend) { b.role = "follower"; b.leaseHeld = false; b.leaderURL = "" })
	}
	n1.set(func(b *stubBackend) { b.lag = 30 })
	n2.set(func(b *stubBackend) { b.lag = 12 }) // freshest
	n3.set(func(b *stubBackend) { b.lag = 45 })
	rt, front := mkRouter(t, Config{MaxReadLag: time.Second}, n1, n2, n3)
	rt.RefreshNow(context.Background())

	resp, body := get(t, front, "/v1/model", "k")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale read status %d (%s)", resp.StatusCode, body)
	}
	if b := resp.Header.Get(BackendHeader); b != "n2" {
		t.Fatalf("stale read served by %q, want freshest follower n2", b)
	}
	if s := resp.Header.Get(StalenessHeader); s != "12.000" {
		t.Fatalf("staleness header %q, want 12.000", s)
	}
}

func TestNoBackendAtAll(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	for _, n := range []*stubBackend{n1, n2, n3} {
		n.set(func(b *stubBackend) { b.downFlag = true })
	}
	rt, front := mkRouter(t, Config{}, n1, n2, n3)
	rt.RefreshNow(context.Background())

	resp, body := get(t, front, "/v1/model", "k")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when the whole fleet is down", resp.StatusCode)
	}
	var e struct {
		Code string `json:"code"`
	}
	json.Unmarshal(body, &e)
	if e.Code != "no_backend" {
		t.Fatalf("code %q, want no_backend", e.Code)
	}
}

func TestWriteBodyTooLargeIsRejectedBeforeForwarding(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	_, front := mkRouter(t, Config{MaxBodyBytes: 64}, n1, n2, n3)
	before := n1.hitCount()
	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json",
		bytes.NewReader(make([]byte, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if n1.hitCount() != before {
		t.Fatal("oversized body reached the leader")
	}
}

func TestRetryBudgetBoundsReadRetries(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	n2.set(func(b *stubBackend) { b.failReads = true })
	n3.set(func(b *stubBackend) { b.failReads = true })
	rt, front := mkRouter(t, Config{
		RetryBudget: resilience.BudgetConfig{Tokens: 3, Ratio: 0.0001},
		// Threshold high enough that ejection does not mask the budget.
		EjectThreshold: 1000,
	}, n1, n2, n3)

	sawBudgetDenial := false
	for i := 0; i < 40; i++ {
		resp, body := get(t, front, "/v1/model", "k")
		resp.Body.Close()
		var e struct {
			Code string `json:"code"`
		}
		json.Unmarshal(body, &e)
		if e.Code == "retry_budget_exhausted" {
			sawBudgetDenial = true
		}
	}
	if !sawBudgetDenial {
		t.Fatal("budget never denied a retry under sustained failure")
	}
	// 40 requests × up to 2 retries each would be 80 retries unthrottled;
	// the bucket holds 3 plus a negligible refill.
	if got := rt.Budget().Retries(); got > 10 {
		t.Fatalf("%d retries admitted, budget should cap near 3", got)
	}
}
