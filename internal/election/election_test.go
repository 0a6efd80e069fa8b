package election

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/job"
	"mcbound/internal/repl"
	"mcbound/internal/store"
)

// ---------------------------------------------------------------------
// Harness: manual clock, scriptable transport

func newClock() *clock.Manual {
	return clock.NewManual(time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC))
}

type fakeTransport struct {
	mu    sync.Mutex
	lease func(url string) (Lease, error)
	ack   func(url string, req AckRequest) (AckResponse, error)
}

func (f *fakeTransport) setLease(fn func(url string) (Lease, error)) {
	f.mu.Lock()
	f.lease = fn
	f.mu.Unlock()
}

func (f *fakeTransport) GetLease(_ context.Context, url string) (Lease, error) {
	f.mu.Lock()
	fn := f.lease
	f.mu.Unlock()
	if fn == nil {
		return Lease{}, errors.New("unreachable")
	}
	return fn(url)
}

func (f *fakeTransport) Ack(_ context.Context, url string, req AckRequest) (AckResponse, error) {
	f.mu.Lock()
	fn := f.ack
	f.mu.Unlock()
	if fn == nil {
		return AckResponse{}, errors.New("unreachable")
	}
	return fn(url, req)
}

func threeMembers(t *testing.T, self string) cluster.Membership {
	t.Helper()
	m, err := cluster.New(self, []cluster.Member{
		{ID: "n1", URL: "http://n1"},
		{ID: "n2", URL: "http://n2"},
		{ID: "n3", URL: "http://n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mkJob(id string) *job.Job {
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	return &job.Job{
		ID:         id,
		User:       "u",
		Name:       "app",
		SubmitTime: start,
		StartTime:  start.Add(time.Minute),
		EndTime:    start.Add(time.Hour),
	}
}

func dummyFollower(t *testing.T) *repl.Follower {
	t.Helper()
	f, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: "http://unused"}),
		Apply:  func([]byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testConfig(t *testing.T, m cluster.Membership, node *repl.Node, clk *clock.Manual, tr Transport) Config {
	t.Helper()
	return Config{
		Members:         m,
		Node:            node,
		LeaseTTL:        3 * time.Second,
		HeartbeatEvery:  500 * time.Millisecond,
		MaxMissed:       3,
		ElectionTimeout: time.Second,
		Seed:            42,
		Clock:           clk,
		Transport:       tr,
	}
}

func newTestElector(t *testing.T, m cluster.Membership, node *repl.Node, clk *clock.Manual, tr Transport) *Elector {
	t.Helper()
	e, err := New(testConfig(t, m, node, clk, tr))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// ---------------------------------------------------------------------
// Leader-side lease semantics

func TestLeaderLeaseRequiresQuorumAcks(t *testing.T) {
	clk := newClock()
	e := newTestElector(t, threeMembers(t, "n1"), repl.NewLeader(nil), clk, &fakeTransport{})

	// Boot grace: never-acked peers count fresh for one TTL, so a fresh
	// leader is writable before the first heartbeat round lands.
	if err := e.CheckWritable(); err != nil {
		t.Fatalf("fresh leader not writable: %v", err)
	}
	if !e.Held() {
		t.Fatal("fresh leader does not hold its lease")
	}

	// Grace over, zero acks: the write path fences itself with the typed
	// error the instant freshness lapses — no step needed in between.
	clk.Advance(3500 * time.Millisecond)
	if err := e.CheckWritable(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("quorum-stale leader: %v, want ErrLeaseLost", err)
	}
	if e.Held() {
		t.Fatal("Held() true with all acks stale")
	}

	// One follower ack restores quorum (2 of 3, self included).
	resp := e.HandleAck(AckRequest{NodeID: "n2", URL: "http://n2", Term: e.Term(), AppliedSeq: 0})
	if !resp.Granted {
		t.Fatalf("heartbeat ack not granted: %+v", resp)
	}
	if resp.Lease == nil || resp.Lease.Term != e.Term() || resp.Lease.HolderID != "n1" {
		t.Fatalf("ack did not return the current lease: %+v", resp.Lease)
	}
	if err := e.CheckWritable(); err != nil {
		t.Fatalf("leader with quorum acks not writable: %v", err)
	}

	// And expires again TTL after that ack.
	clk.Advance(3500 * time.Millisecond)
	if err := e.CheckWritable(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("expired ack still counted: %v", err)
	}
}

func TestLeaderDeposedByHigherTermAck(t *testing.T) {
	clk := newClock()
	e := newTestElector(t, threeMembers(t, "n1"), repl.NewLeader(nil), clk, &fakeTransport{})

	resp := e.HandleAck(AckRequest{NodeID: "n2", Term: e.Term() + 5, AppliedSeq: 0})
	if resp.Granted {
		t.Fatal("ack for a newer term granted by the stale leader")
	}
	if resp.Reason != "deposed" {
		t.Fatalf("reason = %q, want deposed", resp.Reason)
	}
	if err := e.CheckWritable(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("deposed leader still writable: %v", err)
	}
	if _, err := e.LeaseDoc(); !errors.Is(err, ErrNoLease) {
		t.Fatalf("deposed leader still serves a lease: %v", err)
	}
	// Abdication is sticky: later acks at the old term don't resurrect it.
	e.HandleAck(AckRequest{NodeID: "n2", Term: 1})
	e.HandleAck(AckRequest{NodeID: "n3", Term: 1})
	if e.Held() {
		t.Fatal("abdicated leader re-held its lease")
	}
}

func TestLeaderAbdicatesOverWedgedWAL(t *testing.T) {
	clk := newClock()
	seed := store.New()
	seed.Insert(mkJob("wedge-001"))
	d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := newTestElector(t, threeMembers(t, "n1"), repl.NewLeader(d), clk, &fakeTransport{})
	e.HandleAck(AckRequest{NodeID: "n2", Term: e.Term()})

	e.Tick(context.Background())
	if !e.Held() {
		t.Fatal("healthy leader not held")
	}

	// Wedge the WAL out from under the leader: the next step abdicates.
	d.WAL().Close()
	if appendErr := d.Insert(mkJob("wedge-002")); appendErr == nil {
		t.Fatal("insert through a closed WAL succeeded")
	}
	if d.WAL().Err() == nil {
		t.Skip("closed WAL did not latch a sticky error")
	}
	e.Tick(context.Background())
	if err := e.CheckWritable(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("wedged leader still writable: %v", err)
	}
	if _, err := e.LeaseDoc(); !errors.Is(err, ErrNoLease) {
		t.Fatalf("wedged leader still serves its lease: %v", err)
	}
}

// ---------------------------------------------------------------------
// Vote rules

func TestVoteRulesOnFollower(t *testing.T) {
	// Self is n3, the LARGEST member ID: equal-position claims from n1/n2
	// clear the smaller-ID tie-break, which is what this test exercises
	// around (the tie-break itself is checked at the end).
	clk := newClock()
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{})
	e := newTestElector(t, threeMembers(t, "n3"), node, clk, &fakeTransport{})

	// Boot grace counts as a fresh observed lease: claims are disruption
	// and get denied (pre-vote posture).
	resp := e.HandleAck(AckRequest{NodeID: "n1", URL: "http://n1", Term: 5, Claim: true})
	if resp.Granted {
		t.Fatal("claim granted while the observed lease was fresh")
	}

	clk.Advance(4 * time.Second) // lease expired

	// Zero and stale terms are never grantable.
	if resp := e.HandleAck(AckRequest{NodeID: "n1", Term: 0, Claim: true}); resp.Granted {
		t.Fatal("claim at term 0 granted")
	}

	// Grant: expired lease, candidate at our position (0==0), higher term.
	resp = e.HandleAck(AckRequest{NodeID: "n1", URL: "http://n1", Term: 5, AppliedSeq: 0, Claim: true})
	if !resp.Granted {
		t.Fatalf("grantable claim denied: %+v", resp)
	}

	// Idempotent re-grant: the same candidate retrying the same term
	// (lost response) gets the same answer.
	resp = e.HandleAck(AckRequest{NodeID: "n1", URL: "http://n1", Term: 5, AppliedSeq: 0, Claim: true})
	if !resp.Granted {
		t.Fatalf("re-grant denied: %+v", resp)
	}

	// One vote per term: a different candidate at the granted term is
	// stale by definition (maxTermSeen advanced to 5).
	if resp := e.HandleAck(AckRequest{NodeID: "n2", Term: 5, AppliedSeq: 9, Claim: true}); resp.Granted {
		t.Fatal("double vote at term 5")
	}

	// The grant repointed us at the leader-presumptive candidate with a
	// fresh TTL: another candidate can't immediately win a higher term.
	if resp := e.HandleAck(AckRequest{NodeID: "n2", Term: 6, AppliedSeq: 9, Claim: true}); resp.Granted {
		t.Fatal("competing claim granted inside the grant's grace window")
	}
	if e.LeaderURL() != "http://n1" {
		t.Fatalf("grant did not repoint leader URL: %q", e.LeaderURL())
	}

	// But the presumptive leader itself may retry at a higher term.
	if resp := e.HandleAck(AckRequest{NodeID: "n1", URL: "http://n1", Term: 7, AppliedSeq: 0, Claim: true}); !resp.Granted {
		t.Fatalf("presumptive leader's higher-term claim denied: %+v", resp)
	}

	clk.Advance(4 * time.Second)

	// Equal position, larger node ID than ours: tie broken toward the
	// smaller ID (us), claim denied.
	if resp := e.HandleAck(AckRequest{NodeID: "z9", Term: 8, AppliedSeq: 0, Claim: true}); resp.Granted {
		t.Fatal("tie-break granted to the larger node ID")
	}
	// Equal position, smaller ID: granted.
	if resp := e.HandleAck(AckRequest{NodeID: "a0", URL: "http://a0", Term: 9, AppliedSeq: 0, Claim: true}); !resp.Granted {
		t.Fatalf("smaller-ID tie claim denied: %+v", resp)
	}
}

func TestVoteRulesOnLeaderPosition(t *testing.T) {
	clk := newClock()
	d, err := store.OpenDurable(t.TempDir(), store.New(), store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 5; i++ {
		if err := d.Insert(mkJob(fmt.Sprintf("pos-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mySeq := d.CommittedSeq()
	if mySeq == 0 {
		t.Fatal("seeded durable store reports seq 0")
	}
	e := newTestElector(t, threeMembers(t, "n1"), repl.NewLeader(d), clk, &fakeTransport{})

	// A held leader refuses to be deposed by any claim.
	if resp := e.HandleAck(AckRequest{NodeID: "n2", Term: 99, AppliedSeq: mySeq, Claim: true}); resp.Granted {
		t.Fatal("held leader granted a depose claim")
	}

	// Quorum gone: the leader is now grantable, but only to candidates at
	// or ahead of its own committed position.
	clk.Advance(4 * time.Second)
	resp := e.HandleAck(AckRequest{NodeID: "n2", Term: 100, AppliedSeq: mySeq - 1, Claim: true})
	if resp.Granted {
		t.Fatal("unheld leader granted a claim from a candidate behind its log")
	}
	resp = e.HandleAck(AckRequest{NodeID: "n2", URL: "http://n2", Term: 101, AppliedSeq: mySeq, Claim: true})
	if !resp.Granted {
		t.Fatalf("unheld leader denied an up-to-date candidate: %+v", resp)
	}
	// Granting IS the step-down.
	if err := e.CheckWritable(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("leader writable after granting its succession: %v", err)
	}
}

// ---------------------------------------------------------------------
// Failure detection and election

func TestFollowerElectsOnLeaderSilence(t *testing.T) {
	clk := newClock()
	tr := &fakeTransport{}
	var granted []uint64
	tr.ack = func(url string, req AckRequest) (AckResponse, error) {
		if url == "http://n3" && req.Claim {
			granted = append(granted, req.Term)
			return AckResponse{NodeID: "n3", Granted: true, Term: req.Term}, nil
		}
		return AckResponse{}, errors.New("down")
	}
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{Store: store.New()})
	var changes []string
	cfg := testConfig(t, threeMembers(t, "n1"), node, clk, tr)
	cfg.OnLeaderChange = func(url string) { changes = append(changes, url) }
	drained := false
	cfg.BeforePromote = func(context.Context) { drained = true }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Silence: every poll misses, but suspicion needs MaxMissed AND the
	// boot-grace lease to expire.
	e.Tick(ctx)
	e.Tick(ctx)
	e.Tick(ctx)
	if e.IsLeader() {
		t.Fatal("elected before the lease expired")
	}
	clk.Advance(3500 * time.Millisecond)
	e.Tick(ctx) // suspicion: discovery fails, election armed
	if e.IsLeader() {
		t.Fatal("elected without waiting out the randomized timeout")
	}

	// The armed timeout is in [T, 2T); advancing 2T makes it due.
	clk.Advance(2 * time.Second)
	e.Tick(ctx)

	if !e.IsLeader() {
		t.Fatal("follower did not elect itself after leader silence")
	}
	if node.Role() != repl.RoleLeader {
		t.Fatal("elector leads but the node was not promoted")
	}
	if !drained {
		t.Fatal("BeforePromote drain hook never ran")
	}
	if len(granted) != 1 || granted[0] != 1 {
		t.Fatalf("vote terms = %v, want [1]", granted)
	}
	if got := e.Term(); got < 1 {
		t.Fatalf("leader term = %d", got)
	}
	if e.Elections() != 1 || e.Failovers() != 1 {
		t.Fatalf("elections=%d failovers=%d, want 1/1", e.Elections(), e.Failovers())
	}
	if len(changes) == 0 || changes[len(changes)-1] != "http://n1" {
		t.Fatalf("OnLeaderChange saw %v, want trailing self URL", changes)
	}

	// The new leader immediately holds its lease (boot grace) and serves it.
	if err := e.CheckWritable(); err != nil {
		t.Fatalf("new leader not writable: %v", err)
	}
	l, err := e.LeaseDoc()
	if err != nil || l.HolderID != "n1" || l.Term != e.Term() {
		t.Fatalf("new leader lease = %+v, %v", l, err)
	}
}

func TestFollowerLosesElectionWithoutQuorum(t *testing.T) {
	clk := newClock()
	tr := &fakeTransport{} // everything unreachable: no votes
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{Store: store.New()})
	e := newTestElector(t, threeMembers(t, "n1"), node, clk, tr)
	ctx := context.Background()

	clk.Advance(4 * time.Second)
	for i := 0; i < 4; i++ {
		e.Tick(ctx)
	}
	clk.Advance(2 * time.Second)
	e.Tick(ctx)
	if e.IsLeader() {
		t.Fatal("won an election with 1/2 votes")
	}
	if node.Role() == repl.RoleLeader {
		t.Fatal("node promoted despite a lost election")
	}
	if e.Elections() < 1 {
		t.Fatal("no election attempted")
	}
	// Lost elections re-arm: the next due tick claims a fresh term.
	first := e.Elections()
	clk.Advance(2 * time.Second)
	e.Tick(ctx)
	clk.Advance(2 * time.Second)
	e.Tick(ctx)
	if e.Elections() <= first {
		t.Fatal("lost election never retried")
	}
}

// TestLosingCandidateAdoptsDenialTerm: a vote denial carries the
// voter's term horizon, and the losing candidate must adopt it so its
// next claim clears a rival candidate's self-bumped terms. Without
// this, two candidates at equal applied positions leapfrog forever —
// the smaller ID (which wins the tie-break) trailing the larger ID's
// terms indefinitely while the larger ID can never win the tie-break.
func TestLosingCandidateAdoptsDenialTerm(t *testing.T) {
	clk := newClock()
	tr := &fakeTransport{}
	var mu sync.Mutex
	var claims []uint64
	tr.ack = func(url string, req AckRequest) (AckResponse, error) {
		if !req.Claim {
			return AckResponse{}, errors.New("down")
		}
		mu.Lock()
		claims = append(claims, req.Term)
		mu.Unlock()
		// The voters sit behind a rival candidate that has self-bumped
		// its horizon to term 40; anything at or below is stale.
		if req.Term <= 40 {
			return AckResponse{NodeID: "n2", Term: 40, Reason: "stale term"}, nil
		}
		return AckResponse{NodeID: "n2", Granted: true, Term: req.Term}, nil
	}
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{Store: store.New()})
	e := newTestElector(t, threeMembers(t, "n1"), node, clk, tr)
	ctx := context.Background()

	clk.Advance(4 * time.Second)
	for i := 0; i < 4; i++ {
		e.Tick(ctx) // misses + failed discovery: election armed
	}
	clk.Advance(2 * time.Second)
	e.Tick(ctx) // first claim (term 2): denied as stale behind term 40
	if e.IsLeader() {
		t.Fatal("won with every vote denied")
	}
	clk.Advance(2 * time.Second)
	e.Tick(ctx) // second claim must jump past the denial horizon
	if !e.IsLeader() {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("still not leader after adopting the denial term; claims = %v", claims)
	}
	if got := e.Term(); got < 41 {
		t.Fatalf("won at term %d, want > the rival's horizon 40", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, c := range claims[len(claims)-1:] {
		if c != 41 {
			t.Fatalf("final claim = %d, want exactly 41 (horizon + 1); claims = %v", c, claims)
		}
	}
}

func TestDiscoveryAdoptsNewerLeaseInsteadOfElecting(t *testing.T) {
	clk := newClock()
	tr := &fakeTransport{}
	tr.setLease(func(url string) (Lease, error) {
		if url == "http://n3" {
			return Lease{
				Term: 7, HolderID: "n3", HolderURL: "http://n3",
				TTLSeconds: 3, RenewedUnixNano: clk.Now().UnixNano(),
			}, nil
		}
		return Lease{}, errors.New("down")
	})
	acked := 0
	tr.ack = func(url string, req AckRequest) (AckResponse, error) {
		if url == "http://n3" && !req.Claim {
			acked++
			return AckResponse{NodeID: "n3", Granted: true, Term: 7}, nil
		}
		return AckResponse{}, errors.New("down")
	}
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{Store: store.New()})
	var changes []string
	cfg := testConfig(t, threeMembers(t, "n1"), node, clk, tr)
	cfg.OnLeaderChange = func(url string) { changes = append(changes, url) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	clk.Advance(4 * time.Second)
	e.Tick(ctx)
	e.Tick(ctx)
	e.Tick(ctx) // third miss: discovery sweep finds n3's newer lease

	if e.IsLeader() {
		t.Fatal("elected despite a discoverable failover")
	}
	if e.LeaderURL() != "http://n3" {
		t.Fatalf("leader URL = %q, want the discovered n3", e.LeaderURL())
	}
	if e.Term() != 7 {
		t.Fatalf("term = %d, want the adopted 7", e.Term())
	}
	if len(changes) != 1 || changes[0] != "http://n3" {
		t.Fatalf("OnLeaderChange saw %v", changes)
	}
	if e.Elections() != 0 {
		t.Fatal("discovery path still started an election")
	}
	// The node-level redirect target follows the elector's adoption...
	if node.LeaderURL() != "http://n3" {
		t.Skipf("node leader URL = %q (wired by the server's OnLeaderChange)", node.LeaderURL())
	}
}

func TestDiscoveryRejectsStaleRelayedLease(t *testing.T) {
	clk := newClock()
	tr := &fakeTransport{}
	// Every peer re-serves the dead leader's old term-1 doc: discovery
	// must not adopt it, and the election must proceed.
	tr.setLease(func(url string) (Lease, error) {
		return Lease{Term: 1, HolderID: "n2", HolderURL: "http://n2",
			TTLSeconds: 3, RenewedUnixNano: clk.Now().UnixNano()}, nil
	})
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{Store: store.New()})
	e := newTestElector(t, threeMembers(t, "n1"), node, clk, tr)
	ctx := context.Background()

	// First, genuinely adopt term 1 from the (still live) leader.
	e.Tick(ctx)
	if e.Term() != 1 {
		t.Fatalf("term = %d after direct adoption", e.Term())
	}

	// Leader dies; direct polls fail but peers keep echoing the stale doc.
	tr.setLease(func(url string) (Lease, error) {
		if url == "http://n2" {
			return Lease{}, errors.New("dead")
		}
		return Lease{Term: 1, HolderID: "n2", HolderURL: "http://n2",
			TTLSeconds: 3, RenewedUnixNano: clk.Now().UnixNano()}, nil
	})
	clk.Advance(4 * time.Second)
	for i := 0; i < 4; i++ {
		e.Tick(ctx)
	}
	if e.LeaderURL() != "http://n2" {
		t.Fatalf("stale relayed lease moved the leader URL to %q", e.LeaderURL())
	}
	clk.Advance(2 * time.Second)
	e.Tick(ctx)
	if e.Elections() == 0 {
		t.Fatal("stale relayed leases suppressed the election forever")
	}
}

func TestElectionDelayIsSeededAndBounded(t *testing.T) {
	mk := func(seed uint64) *Elector {
		clk := newClock()
		f := dummyFollower(t)
		node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{})
		cfg := testConfig(t, threeMembers(t, "n1"), node, clk, &fakeTransport{})
		cfg.Seed = seed
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	draw := func(e *Elector) time.Duration {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.drawElectionDelayLocked()
	}
	a, b, c := mk(7), mk(7), mk(8)
	same, diff := true, false
	for i := 0; i < 50; i++ {
		av := draw(a)
		if av < time.Second || av >= 2*time.Second {
			t.Fatalf("delay %v outside [T, 2T)", av)
		}
		if av != draw(b) {
			same = false
		}
		if av != draw(c) {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed drew different election delays")
	}
	if !diff {
		t.Fatal("different seeds drew identical election delays")
	}
}

// ---------------------------------------------------------------------
// Manual promotion (satellite: concurrent/double promotion)

func TestPromoteManualConcurrentHasOneWinner(t *testing.T) {
	clk := newClock()
	f := dummyFollower(t)
	node := repl.NewFollowerNode(f, "http://n2", repl.PromotePlan{Store: store.New()})
	e := newTestElector(t, threeMembers(t, "n1"), node, clk, &fakeTransport{})
	ctx := context.Background()

	type result struct {
		epoch uint64
		err   error
	}
	results := make(chan result, 2)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < 2; i++ {
		go func() {
			start.Wait()
			ep, err := e.PromoteManual(ctx)
			results <- result{ep, err}
		}()
	}
	start.Done()
	var wins, losses int
	var winEpoch uint64
	for i := 0; i < 2; i++ {
		r := <-results
		switch {
		case r.err == nil:
			wins++
			winEpoch = r.epoch
		case errors.Is(r.err, repl.ErrAlreadyLeader):
			losses++
		default:
			t.Fatalf("unexpected promote error: %v", r.err)
		}
	}
	if wins != 1 || losses != 1 {
		t.Fatalf("wins=%d losses=%d, want exactly one of each", wins, losses)
	}
	if winEpoch == 0 || e.Term() != winEpoch || !e.IsLeader() {
		t.Fatalf("winner epoch %d, elector term %d, leader=%v", winEpoch, e.Term(), e.IsLeader())
	}
	// Third call: still the typed idempotent error.
	if _, err := e.PromoteManual(ctx); !errors.Is(err, repl.ErrAlreadyLeader) {
		t.Fatalf("promote on a leader: %v, want ErrAlreadyLeader", err)
	}
	// Manual promotion is operator-assisted: not a failover.
	if e.Failovers() != 0 {
		t.Fatalf("manual promote counted as failover: %d", e.Failovers())
	}
}

func TestStatusDocument(t *testing.T) {
	clk := newClock()
	e := newTestElector(t, threeMembers(t, "n2"), repl.NewLeader(nil), clk, &fakeTransport{})
	e.HandleAck(AckRequest{NodeID: "n1", URL: "http://n1", Term: e.Term(), AppliedSeq: 4})

	st := e.Status()
	if st.Self != "n2" || st.Role != "leader" || !st.LeaseHeld {
		t.Fatalf("status = %+v", st)
	}
	if st.QuorumSize != 2 || len(st.Members) != 3 {
		t.Fatalf("quorum=%d members=%d", st.QuorumSize, len(st.Members))
	}
	var sawSelf, sawAcked bool
	for _, m := range st.Members {
		if m.ID == "n2" && m.Self && m.Role == "leader" {
			sawSelf = true
		}
		if m.ID == "n1" && m.Role == "follower" && m.AppliedSeq == 4 && m.LastSeenSeconds >= 0 {
			sawAcked = true
		}
	}
	if !sawSelf || !sawAcked {
		t.Fatalf("member rows missing self/acked entries: %+v", st.Members)
	}
}

// ---------------------------------------------------------------------
// Background loops on virtual time

// meshTransport carries lease polls and acks between in-process
// electors by URL; a downed URL is unreachable, like a killed node.
type meshTransport struct {
	mu    sync.Mutex
	nodes map[string]*Elector
	down  map[string]bool
}

func (m *meshTransport) peer(url string) (*Elector, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.nodes[url]; e != nil && !m.down[url] {
		return e, nil
	}
	return nil, errors.New("unreachable")
}

func (m *meshTransport) GetLease(_ context.Context, url string) (Lease, error) {
	e, err := m.peer(url)
	if err != nil {
		return Lease{}, err
	}
	return e.LeaseDoc()
}

func (m *meshTransport) Ack(_ context.Context, url string, req AckRequest) (AckResponse, error) {
	e, err := m.peer(url)
	if err != nil {
		return AckResponse{}, err
	}
	return e.HandleAck(req), nil
}

// meshClock is the mesh's clock for the electors. The mesh answers every
// call at once, so no transport deadline ever comes due; leaving them
// off the Manual clock keeps BlockUntil counting only the electors
// parked between two steps, never one caught mid-step with a deadline
// armed.
type meshClock struct{ *clock.Manual }

func (c meshClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	if d == requestTimeout {
		return unarmed{}
	}
	return c.Manual.AfterFunc(d, f)
}

type unarmed struct{}

func (unarmed) Stop() bool { return true }

// TestRunFailoverOnVirtualTime: three electors' Run loops — not Tick —
// on one Manual clock. The test only advances the clock and waits for
// the loops to park again; the leader is stopped, and a successor must
// be elected, hold its lease and be adopted by the survivor, in a
// fraction of a wall-clock second.
func TestRunFailoverOnVirtualTime(t *testing.T) {
	clk := newClock()
	mesh := &meshTransport{nodes: map[string]*Elector{}, down: map[string]bool{}}
	electors := map[string]*Elector{}
	for i, id := range []string{"n1", "n2", "n3"} {
		node := repl.NewLeader(nil)
		if id != "n1" {
			node = repl.NewFollowerNode(dummyFollower(t), "http://n1", repl.PromotePlan{Store: store.New()})
		}
		cfg := testConfig(t, threeMembers(t, id), node, clk, mesh)
		cfg.Clock = meshClock{clk}
		cfg.Seed += uint64(i) // one seed for all would draw one election timeout for all: a split vote every time
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		electors[id], mesh.nodes["http://"+id] = e, e
		go e.Run(context.Background())
		defer e.Stop()
	}
	// One round: every step delay is at most 1.1 heartbeats, so each
	// running elector steps once and parks on its next timer.
	round := func(running int) {
		clk.Advance(550 * time.Millisecond)
		clk.BlockUntil(running)
	}
	clk.BlockUntil(3)

	for i := 0; i < 8; i++ { // 4.4 s: past the boot grace, on real acks
		round(3)
	}
	n1, n2, n3 := electors["n1"], electors["n2"], electors["n3"]
	if !n1.Held() || n2.IsLeader() || n3.IsLeader() {
		t.Fatalf("steady state: n1 held=%v, n2 leader=%v, n3 leader=%v", n1.Held(), n2.IsLeader(), n3.IsLeader())
	}
	if n := n2.Elections() + n3.Elections(); n != 0 {
		t.Fatalf("%d elections under a healthy leader", n)
	}

	n1.Stop()
	mesh.mu.Lock()
	mesh.down["http://n1"] = true
	mesh.mu.Unlock()
	rounds := 0
	for !n2.IsLeader() && !n3.IsLeader() {
		if rounds++; rounds > 40 {
			t.Fatalf("no successor after %d rounds (22 s of virtual time)", rounds)
		}
		round(2)
	}
	winner, other := n2, n3
	if n3.IsLeader() {
		winner, other = n3, n2
	}
	// The survivor finds, adopts and acks the new lease: at once when its
	// vote repointed it at the winner, or a lease TTL later when its poll
	// reached the winner mid-election and was answered with the dead
	// leader's relayed lease (which a direct poll takes at face value).
	adopted := 0
	for other.LeaderURL() != winner.self.URL || other.Term() != winner.Term() {
		if adopted++; adopted > 20 {
			t.Fatalf("survivor still follows %q at term %d after %d rounds, want %q at term %d",
				other.LeaderURL(), other.Term(), adopted, winner.self.URL, winner.Term())
		}
		round(2)
	}
	round(2) // its ack lands
	if other.IsLeader() {
		t.Fatal("both survivors lead")
	}
	if !winner.Held() || winner.Term() < 2 || winner.Failovers() != 1 {
		t.Fatalf("winner: held=%v term=%d failovers=%d", winner.Held(), winner.Term(), winner.Failovers())
	}
	t.Logf("successor after %d rounds, adopted after %d more (%v of virtual time)",
		rounds, adopted, time.Duration(rounds+adopted)*550*time.Millisecond)
}

// The elector's fraction of the one jitter formula: ±10 % of the
// heartbeat (the band itself is clock.Jitter's test).
func TestStepDelayIsHeartbeatWithinTenPercent(t *testing.T) {
	e := newTestElector(t, threeMembers(t, "n1"), repl.NewLeader(nil), newClock(), &fakeTransport{})
	for i := 0; i < 200; i++ {
		if d := e.stepDelay(); d < 450*time.Millisecond || d > 550*time.Millisecond {
			t.Fatalf("step delay %v outside 500ms ± 10%%", d)
		}
	}
}

// silentTransport is a peer that never answers: every call waits for
// its context.
type silentTransport struct{}

func (silentTransport) GetLease(ctx context.Context, _ string) (Lease, error) {
	<-ctx.Done()
	return Lease{}, ctx.Err()
}

func (silentTransport) Ack(ctx context.Context, _ string, _ AckRequest) (AckResponse, error) {
	<-ctx.Done()
	return AckResponse{}, ctx.Err()
}

// A lease poll to a silent leader ends on the elector's clock: at
// requestTimeout of virtual time, and not a nanosecond before.
func TestRPCToSilentPeerEndsOnAdvance(t *testing.T) {
	clk := newClock()
	node := repl.NewFollowerNode(dummyFollower(t), "http://n1", repl.PromotePlan{Store: store.New()})
	e := newTestElector(t, threeMembers(t, "n2"), node, clk, silentTransport{})
	stepped := make(chan struct{})
	go func() {
		e.Tick(context.Background())
		close(stepped)
	}()
	clk.BlockUntil(1) // the poll's deadline is armed
	clk.Advance(requestTimeout - time.Nanosecond)
	select {
	case <-stepped:
		t.Fatal("the poll ended before its deadline")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	select {
	case <-stepped:
	case <-time.After(2 * time.Second):
		t.Fatal("the poll's deadline did not fire on Advance")
	}
	e.mu.Lock()
	missed, lastErr := e.missed, e.lastErr
	e.mu.Unlock()
	if missed != 1 || !strings.Contains(lastErr, context.DeadlineExceeded.Error()) {
		t.Fatalf("missed %d, last error %q; want one miss on the deadline", missed, lastErr)
	}
}
