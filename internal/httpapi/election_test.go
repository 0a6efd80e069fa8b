package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/election"
	"mcbound/internal/repl"
	"mcbound/internal/store"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// newElectedLeader builds a leader API whose write path runs under a
// 3-member elector with an injectable clock; opts adds to the durable
// store, replication role and elector it mounts.
func newElectedLeader(t *testing.T, opts Options) (*Server, *election.Elector, *clock.Manual) {
	t.Helper()
	lst := seedStore(t)
	dur, err := store.OpenDurable(t.TempDir(), lst, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	node := repl.NewLeader(dur)
	members, err := cluster.New("n1", []cluster.Member{
		{ID: "n1", URL: "http://n1"},
		{ID: "n2", URL: "http://n2"},
		{ID: "n3", URL: "http://n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewManual(time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC))
	el, err := election.New(election.Config{
		Members:        members,
		Node:           node,
		LeaseTTL:       3 * time.Second,
		HeartbeatEvery: 500 * time.Millisecond,
		Clock:          clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Durable, opts.Repl, opts.Elector = dur, node, el
	return newAPI(t, lst, nil, true, opts), el, clk
}

// newElectedFollower builds a second API over p's follower replica, this
// one under a 2-member elector (p's plain follower server stays up).
func newElectedFollower(t *testing.T, p *replPair, opts Options) (*Server, *repl.Node, *election.Elector) {
	t.Helper()
	members, err := cluster.New("f1", []cluster.Member{
		{ID: "f1", URL: p.followerSrv.URL},
		{ID: "l1", URL: p.leaderSrv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	node := repl.NewFollowerNode(p.follower, p.leaderSrv.URL, repl.PromotePlan{Store: p.followerSt})
	el, err := election.New(election.Config{
		Members:        members,
		Node:           node,
		LeaseTTL:       3 * time.Second,
		HeartbeatEvery: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Repl, opts.Elector = node, el
	return newAPI(t, p.followerSt, nil, true, opts), node, el
}

func TestLeaseRoutesAndWriteFencing(t *testing.T) {
	api, el, clk := newElectedLeader(t, Options{})
	srv := httptest.NewServer(api)
	defer srv.Close()

	// The lease document is served at Critical priority.
	var leaseDoc struct {
		Lease election.Lease `json:"lease"`
	}
	if code := getJSON(t, srv.URL+"/v1/lease", &leaseDoc); code != http.StatusOK {
		t.Fatalf("GET /v1/lease status = %d", code)
	}
	if leaseDoc.Lease.HolderID != "n1" || leaseDoc.Lease.Term != el.Term() {
		t.Fatalf("lease = %+v", leaseDoc.Lease)
	}

	// Within boot grace the leader is writable.
	goodJob := `[{"id":"lease-w1","name":"x","user":"u1","cores_req":4,"nodes_req":1,"freq_req":2000,"submit":"2024-03-01T00:00:00Z"}]`
	resp, body := postJSON(t, srv.URL+"/v1/jobs", json.RawMessage(goodJob))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert under held lease = %d: %s", resp.StatusCode, body)
	}

	// Quorum acks go stale: the very next write is fenced with the typed
	// lease_lost 503 — no elector tick in between.
	clk.Advance(4 * time.Second)
	resp, body = postJSON(t, srv.URL+"/v1/jobs", json.RawMessage(goodJob))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert after quorum loss = %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "lease_lost" {
		t.Fatalf("fence code = %q (%v), want lease_lost", e.Code, err)
	}

	// healthz fails readiness too, naming the condition.
	var h struct {
		Status  string          `json:"status"`
		Cluster *cluster.Status `json:"cluster"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz without lease = %d, want 503", code)
	}
	if h.Status != "lease_lost" || h.Cluster == nil || h.Cluster.LeaseHeld {
		t.Fatalf("healthz = %+v", h)
	}

	// One follower ack restores quorum (2/3) and reopens the write path.
	resp, body = postJSON(t, srv.URL+"/v1/lease/ack",
		election.AckRequest{NodeID: "n2", URL: "http://n2", Term: el.Term(), AppliedSeq: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ack status = %d: %s", resp.StatusCode, body)
	}
	var ack election.AckResponse
	if err := json.Unmarshal(body, &ack); err != nil || !ack.Granted || ack.Lease == nil {
		t.Fatalf("ack response = %s (%v)", body, err)
	}
	resp, body = postJSON(t, srv.URL+"/v1/jobs", json.RawMessage(goodJob))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after quorum recovery = %d: %s", resp.StatusCode, body)
	}

	// /healthz's cluster section reflects the acked member.
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusOK || h.Cluster == nil {
		t.Fatalf("healthz after quorum recovery = %d, cluster %v", code, h.Cluster)
	}
	cst := *h.Cluster
	if cst.Role != "leader" || !cst.LeaseHeld || cst.QuorumSize != 2 || len(cst.Members) != 3 {
		t.Fatalf("cluster status = %+v", cst)
	}
	var sawAck bool
	for _, m := range cst.Members {
		if m.ID == "n2" && m.LastSeenSeconds >= 0 {
			sawAck = true
		}
	}
	if !sawAck {
		t.Fatalf("acked member missing from status: %+v", cst.Members)
	}

	// Election metrics are exposed.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"mcbound_cluster_is_leader 1",
		"mcbound_cluster_lease_held 1",
		"mcbound_cluster_members 3",
		"mcbound_cluster_elections_total",
		"mcbound_cluster_failovers_total",
		"mcbound_cluster_heartbeat_age_seconds",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConcurrentPromoteExactlyOneWinner is the double-promotion
// contract over HTTP: two simultaneous POST /v1/promote on the same
// follower produce exactly one new leader at a monotone epoch and one
// typed already_leader conflict.
func TestConcurrentPromoteExactlyOneWinner(t *testing.T) {
	p := newReplPair(t)
	api, node, el := newElectedFollower(t, p, Options{})
	srv := httptest.NewServer(api)
	defer srv.Close()

	type result struct {
		status int
		code   string
		epoch  uint64
	}
	results := make(chan result, 2)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < 2; i++ {
		go func() {
			start.Wait()
			resp, body := postJSON(t, srv.URL+"/v1/promote", nil)
			var out struct {
				Epoch uint64 `json:"epoch"`
				Code  string `json:"code"`
			}
			json.Unmarshal(body, &out)
			results <- result{resp.StatusCode, out.Code, out.Epoch}
		}()
	}
	start.Done()
	var wins, conflicts int
	var winEpoch uint64
	for i := 0; i < 2; i++ {
		r := <-results
		switch r.status {
		case http.StatusOK:
			wins++
			winEpoch = r.epoch
		case http.StatusConflict:
			conflicts++
			if r.code != "already_leader" {
				t.Fatalf("conflict code = %q", r.code)
			}
		default:
			t.Fatalf("unexpected promote status %d", r.status)
		}
	}
	if wins != 1 || conflicts != 1 {
		t.Fatalf("wins=%d conflicts=%d, want exactly one of each", wins, conflicts)
	}
	// The epoch moved strictly past the streamed epoch (monotone fencing).
	if winEpoch < 2 {
		t.Fatalf("promoted epoch = %d, want >= 2", winEpoch)
	}
	if node.Role() != repl.RoleLeader || el.Term() != winEpoch {
		t.Fatalf("role=%v term=%d epoch=%d", node.Role(), el.Term(), winEpoch)
	}

	// Re-promoting stays a typed 409, idempotently.
	resp, body := postJSON(t, srv.URL+"/v1/promote", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-promote = %d: %s", resp.StatusCode, body)
	}
}

// TestFollowerLeaseRelay: a follower that never observed a lease
// answers the typed no_lease 503; /healthz still reports its cluster
// view.
func TestFollowerLeaseRelay(t *testing.T) {
	p := newReplPair(t)
	api, _, _ := newElectedFollower(t, p, Options{})
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/lease/ack", election.AckRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ack without node_id = %d: %s", resp.StatusCode, body)
	}

	r, err := http.Get(srv.URL + "/v1/lease")
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lease on lease-less follower = %d: %s", r.StatusCode, lb)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(lb, &e); err != nil || e.Code != "no_lease" {
		t.Fatalf("code = %q (%v), want no_lease", e.Code, err)
	}

	var h struct {
		Cluster *cluster.Status `json:"cluster"`
	}
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Cluster == nil || h.Cluster.Role != "follower" || h.Cluster.Self != "f1" {
		t.Fatalf("healthz cluster section = %+v", h.Cluster)
	}
}
