package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/repl"
)

// stubBackend is a controllable stand-in for one mcbound-server node:
// it speaks just enough of the health and data surface for the router
// (role, lag, lease, 421 redirects), and every
// failure mode the chaos suite needs — kill, slow, 5xx — is a flag.
type stubBackend struct {
	id  string
	srv *httptest.Server

	mu        sync.Mutex
	role      string // "leader" | "follower"
	leaseHeld bool
	leaderURL string // where this node believes the leader lives
	lag       float64
	downFlag  bool          // kill: hijack + close, a transport error
	delay     time.Duration // added to every data request
	gate      chan struct{} // when set, every data request waits for it to close
	failReads bool          // 5xx every data request
	hits      int
	probes    int      // /healthz requests answered
	canceled  int      // data requests whose context died before the delay or gate
	ids       []string // X-Request-Id of every data request, in arrival order
}

func newStubBackend(t *testing.T, id string) *stubBackend {
	t.Helper()
	b := &stubBackend{id: id, role: "follower"}
	b.srv = httptest.NewServer(http.HandlerFunc(b.handle))
	t.Cleanup(b.srv.Close)
	return b
}

func (b *stubBackend) url() string { return b.srv.URL }

func (b *stubBackend) set(fn func(b *stubBackend)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b)
}

func (b *stubBackend) hitCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits
}

func (b *stubBackend) probeCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probes
}

func (b *stubBackend) requestIDs() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.ids...)
}

func (b *stubBackend) canceledCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.canceled
}

func (b *stubBackend) handle(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	down, role, lease, leaderURL, lag := b.downFlag, b.role, b.leaseHeld, b.leaderURL, b.lag
	delay, gate, fail := b.delay, b.gate, b.failReads
	b.mu.Unlock()

	if down {
		// A killed process: the connection dies without an HTTP answer.
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
				return
			}
		}
		panic("stub backend cannot hijack")
	}

	if r.URL.Path == "/healthz" {
		b.mu.Lock()
		b.probes++
		b.mu.Unlock()
		b.writeHealth(w, role, lease, leaderURL, lag)
		return
	}

	b.mu.Lock()
	b.hits++
	b.ids = append(b.ids, r.Header.Get(httpapi.RequestIDHeader))
	b.mu.Unlock()

	if delay > 0 || gate != nil {
		var elapsed <-chan time.Time // nil, never ready, without a delay
		if delay > 0 {
			elapsed = time.After(delay)
		}
		select {
		case <-elapsed:
		case <-gate:
		case <-r.Context().Done():
			b.mu.Lock()
			b.canceled++
			b.mu.Unlock()
			return
		}
	}
	if fail {
		http.Error(w, "stub induced failure", http.StatusInternalServerError)
		return
	}

	switch {
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"backend": b.id, "path": r.URL.Path})
	default:
		// Writes are leader-only, mirroring httpapi's leaderOnly guard.
		if role != "leader" || !lease {
			if leaderURL != "" {
				w.Header().Set("Location", leaderURL+r.URL.RequestURI())
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			io.WriteString(w, `{"error":"not the leader","code":"not_leader"}`)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"backend": b.id, "accepted": len(body)})
	}
}

func (b *stubBackend) writeHealth(w http.ResponseWriter, role string, lease bool, leaderURL string, lag float64) {
	doc := httpapi.Health{
		Status:      "ok",
		Replication: &repl.NodeStatus{Role: role, Leader: leaderURL},
		Cluster:     &cluster.Status{Self: b.id, Role: role, LeaseHeld: lease, LeaderURL: leaderURL},
	}
	if role == "follower" {
		doc.Replication.Follower = &repl.FollowerStatus{State: repl.StateOK, LagSeconds: lag}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// mkRouter builds a router over the given stubs with chaos-test-speed
// settings, probes once, and returns it with its HTTP front.
func mkRouter(t *testing.T, cfg Config, stubs ...*stubBackend) (*Router, *httptest.Server) {
	t.Helper()
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, cluster.Member{ID: s.id, URL: s.url()})
	}
	if cfg.PollEvery == 0 {
		cfg.PollEvery = 40 * time.Millisecond
	}
	if cfg.HedgeAfterMin == 0 {
		// High floor by default so unit tests exercise hedging only when
		// they ask for it; local httptest jitter must not trigger hedges.
		cfg.HedgeAfterMin = 500 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.RefreshNow(context.Background())
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return rt, front
}

// threeNode wires the canonical fixture: n1 leads, n2 and n3 follow.
func threeNode(t *testing.T) (*stubBackend, *stubBackend, *stubBackend) {
	t.Helper()
	n1, n2, n3 := newStubBackend(t, "n1"), newStubBackend(t, "n2"), newStubBackend(t, "n3")
	lead := n1.url()
	n1.set(func(b *stubBackend) { b.role = "leader"; b.leaseHeld = true; b.leaderURL = lead })
	n2.set(func(b *stubBackend) { b.leaderURL = lead })
	n3.set(func(b *stubBackend) { b.leaderURL = lead })
	return n1, n2, n3
}

// get fetches a path through the front door with a client identity.
func get(t *testing.T, front *httptest.Server, path, clientID string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, front.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clientID != "" {
		req.Header.Set("X-Client-Id", clientID)
	}
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}
