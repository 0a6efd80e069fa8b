package router

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/resilience"
)

// keyFor finds a client key whose rendezvous order puts primaryID
// ahead of otherID, so a test can steer which follower a read hits
// first.
func keyFor(t *testing.T, primaryID, otherID string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if rendezvousScore(primaryID, k) > rendezvousScore(otherID, k) {
			return k
		}
	}
	t.Fatal("no key prefers the requested backend")
	return ""
}

func TestHedgedReadWinsOverSlowPrimary(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	n2.set(func(b *stubBackend) { b.delay = 400 * time.Millisecond })
	rt, front := mkRouter(t, Config{HedgeAfterMin: 15 * time.Millisecond}, n1, n2, n3)

	key := keyFor(t, "n2", "n3") // primary = slow n2, hedge = n3
	start := time.Now()
	resp, body := get(t, front, "/v1/model", key)
	dur := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged read status %d (%s)", resp.StatusCode, body)
	}
	if b := resp.Header.Get(BackendHeader); b != "n3" {
		t.Fatalf("served by %q, want the hedge backend n3", b)
	}
	if dur >= 400*time.Millisecond {
		t.Fatalf("hedged read took %v — it waited out the slow primary", dur)
	}
	if rt.hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", rt.hedges.Load())
	}
	if rt.met.hedgeWins.Value() != 1 {
		t.Fatalf("hedge wins = %d, want 1", rt.met.hedgeWins.Value())
	}
}

// TestHedgeCarriesOneRequestID: a read the router hedges reaches both
// backends under one X-Request-Id — minted by the router when the client
// sent none, the client's own otherwise — and the client gets that ID
// back. The router's own answers carry one too.
func TestHedgeCarriesOneRequestID(t *testing.T) {
	n1, n2 := newStubBackend(t, "n1"), newStubBackend(t, "n2")
	lead := n1.url()
	n1.set(func(b *stubBackend) { b.role = "leader"; b.leaseHeld = true; b.leaderURL = lead })
	n2.set(func(b *stubBackend) { b.leaderURL = lead; b.delay = 300 * time.Millisecond })
	rt, front := mkRouter(t, Config{HedgeAfterMin: 15 * time.Millisecond}, n1, n2)

	for i, sent := range []string{"", "client-7"} {
		req, err := http.NewRequest(http.MethodGet, front.URL+"/v1/model", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set(httpapi.RequestIDHeader, sent)
		}
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(httpapi.RequestIDHeader)
		if id == "" || sent != "" && id != sent {
			t.Fatalf("sent %q, got back %q", sent, id)
		}
		if got := rt.Hedges(); got != int64(i+1) {
			t.Fatalf("hedges = %d, want %d: the slow follower must be hedged to the leader", got, i+1)
		}
		for _, b := range []*stubBackend{n2, n1} { // primary, hedge
			if ids := b.requestIDs(); len(ids) != i+1 || ids[i] != id {
				t.Errorf("%s saw request IDs %q, want the client's %q last", b.id, ids, id)
			}
		}
	}
	// The router's own answers carry an ID too.
	if resp, _ := get(t, front, "/healthz", ""); resp.Header.Get(httpapi.RequestIDHeader) == "" {
		t.Error("the router's /healthz answered without an X-Request-Id")
	}
}

func TestHedgeLoserIsCanceledAndNoGoroutinesLeak(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	n2.set(func(b *stubBackend) { b.delay = 2 * time.Second })
	rt, front := mkRouter(t, Config{HedgeAfterMin: 10 * time.Millisecond}, n1, n2, n3)
	_ = rt

	key := keyFor(t, "n2", "n3")
	baseline := runtime.NumGoroutine()
	const reads = 5
	for i := 0; i < reads; i++ {
		resp, _ := get(t, front, "/v1/model", key)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
	}
	// Each losing primary must be canceled the moment the hedge wins —
	// the stub counts requests whose context died before the 2 s delay
	// elapsed. Canceled transports also mean no goroutine sticks around.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if n2.canceledCount() >= reads && runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("after %d hedged reads: %d cancellations (want %d), goroutines %d (baseline %d)",
		reads, n2.canceledCount(), reads, runtime.NumGoroutine(), baseline)
}

func TestEjectAndRecoverFlapping(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	n3.set(func(b *stubBackend) { b.failReads = true })
	rt, front := mkRouter(t, Config{
		EjectThreshold: 3,
		EjectCooldown:  60 * time.Millisecond,
		Seed:           7, // jitter in [0.5,1.5)× is seeded — the flap cadence reproduces
		// Generous budget: this test measures ejection behavior, not
		// retry throttling, and every flap burns threshold-many retries.
		RetryBudget: resilience.BudgetConfig{Tokens: 100, Ratio: 1},
	}, n1, n2, n3)

	key := keyFor(t, "n3", "n2") // primary = failing n3
	bad := rt.byURL[n3.url()]
	deadline := time.Now().Add(5 * time.Second)
	for bad.ejectionCount() < 3 && time.Now().Before(deadline) {
		resp, _ := get(t, front, "/v1/model", key)
		// The client must never see the failure: retries absorb it.
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("client saw status %d during eject/recover flapping", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := bad.ejectionCount(); got < 3 {
		t.Fatalf("ejections = %d, want ≥ 3 (eject → cooldown lapse → re-eject)", got)
	}
	// While ejected, reads must not touch the backend.
	if !bad.ejected(rt.clock.Now()) {
		// Wait for the current streak to eject again.
		for i := 0; i < 50 && !bad.ejected(rt.clock.Now()); i++ {
			get(t, front, "/v1/model", key)
		}
	}
	before := n3.hitCount()
	for i := 0; i < 5; i++ {
		get(t, front, "/v1/model", key)
	}
	if bad.ejected(rt.clock.Now()) && n3.hitCount() != before {
		t.Fatal("an ejected backend still received reads")
	}
}

func TestEjectionFloorNeverEmptiesTheFleet(t *testing.T) {
	// Both backends fail every read. With maxEjectFraction 0.5 of a
	// two-member fleet, at most one may be ejected — the fleet never
	// goes fully dark by the router's own hand.
	n1 := newStubBackend(t, "n1")
	n2 := newStubBackend(t, "n2")
	n1.set(func(b *stubBackend) { b.failReads = true })
	n2.set(func(b *stubBackend) { b.failReads = true })
	rt, front := mkRouter(t, Config{
		EjectThreshold: 2,
		EjectCooldown:  10 * time.Second, // long: an ejection sticks for the test
	}, n1, n2)

	for i := 0; i < 30; i++ {
		resp, _ := get(t, front, "/v1/model", fmt.Sprintf("k%d", i))
		resp.Body.Close()
	}
	now := rt.clock.Now()
	ejected := 0
	for _, b := range rt.backends {
		if b.ejected(now) {
			ejected++
		}
	}
	if ejected > 1 {
		t.Fatalf("%d of 2 backends ejected, the floor allows at most 1", ejected)
	}

	// Single-backend fleet: the floor forbids ejection entirely.
	solo := newStubBackend(t, "solo")
	solo.set(func(b *stubBackend) { b.failReads = true })
	rts, fronts := mkRouter(t, Config{EjectThreshold: 2, EjectCooldown: 10 * time.Second}, solo)
	for i := 0; i < 20; i++ {
		resp, _ := get(t, fronts, "/v1/model", "k")
		resp.Body.Close()
	}
	if rts.backends[0].ejected(rts.clock.Now()) {
		t.Fatal("the only backend was ejected")
	}
}

// The router's fraction of the one jitter formula (clock.Jitter's tests
// cover the band): an ejection lasts EjectCooldown × [0.5, 1.5).
func TestEjectCooldownIsHalfToOneAndAHalfTimesBase(t *testing.T) {
	rt, err := New(Config{
		Backends:      []cluster.Member{{ID: "n1", URL: "http://n1"}},
		EjectCooldown: 10 * time.Second,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi time.Duration = time.Hour, 0
	for i := 0; i < 200; i++ {
		d := rt.ejectCooldown()
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 5*time.Second || hi >= 15*time.Second || hi-lo < 8*time.Second {
		t.Fatalf("ejection cooldowns drew [%v, %v], want most of [5s, 15s)", lo, hi)
	}
}

// The hedge delay is max(HedgeAfterMin, the smallest candidate p95 of a
// full 64-read window): the floor while no candidate has filled one,
// the fastest candidate's p95 after, and it follows that backend's
// latest window down again — the window forgets the slower reads.
func TestHedgeDelayFollowsTheLastFullWindow(t *testing.T) {
	rt, err := New(Config{
		Backends: []cluster.Member{
			{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}, {ID: "c", URL: "http://c"},
		},
		HedgeAfterMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := rt.backends[0], rt.backends[1], rt.backends[2]
	observe := func(be *backend, n int, d time.Duration) {
		for i := 0; i < n; i++ {
			be.lat.Observe(d)
		}
	}
	steps := []struct {
		name  string
		feed  func()
		cands []*backend
		want  time.Duration
	}{
		{"63 reads each: the floor", func() {
			observe(a, 63, 40*time.Millisecond)
			observe(b, 63, 20*time.Millisecond)
			observe(c, 63, 2*time.Millisecond)
		}, []*backend{a, b, c}, 5 * time.Millisecond},
		{"a full window each: the smallest p95 above the floor", func() {
			observe(a, 1, 40*time.Millisecond)
			observe(b, 1, 20*time.Millisecond)
		}, []*backend{a, b, c}, 20 * time.Millisecond},
		{"a p95 below the floor is floored", func() {
			observe(c, 1, 2*time.Millisecond)
		}, []*backend{a, b, c}, 5 * time.Millisecond},
		{"one faster window: the delay falls", func() {
			observe(b, 64, 10*time.Millisecond)
		}, []*backend{a, b}, 10 * time.Millisecond},
	}
	for _, st := range steps {
		st.feed()
		if got := rt.hedgeDelay(st.cands); got != st.want {
			t.Fatalf("%s: hedge delay %v, want %v", st.name, got, st.want)
		}
	}
}
