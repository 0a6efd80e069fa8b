package repl_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
)

// serve421 stands up a follower-shaped node: every replication request
// answers 421 with a Location pointing at target() (empty = no header),
// the way httpapi's leaderOnly middleware advertises the leader.
func serve421(t *testing.T, target func() string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if u := target(); u != "" {
			w.Header().Set("Location", u+r.URL.RequestURI())
		}
		http.Error(w, "not the leader", http.StatusMisdirectedRequest)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func newLeaderServer(t *testing.T, jobs int) (*store.Durable, *httptest.Server) {
	t.Helper()
	seed := store.New()
	for i := 0; i < jobs; i++ {
		seed.Insert(mkJob(fmt.Sprintf("redir-%03d", i)))
	}
	d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	node := repl.NewLeader(d)
	return d, serveNode(t, func() *repl.Node { return node })
}

// hostLog is a RoundTripper that records the host of every request a
// client sends.
type hostLog struct {
	mu    sync.Mutex
	hosts []string
}

func (l *hostLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.hosts = append(l.hosts, r.URL.Host)
	l.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (l *hostLog) sent() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.hosts...)
}

// A 421 never moves the client, whatever its Location names: the live
// leader of the cluster or a box outside it. The answer is the typed
// ErrSourceNotLeader after one request, the base stays put, the breaker
// is not charged, and the Location's host sees no request. Only the
// elector's Redirect moves the client.
func TestClient421NeverMovesTheClient(t *testing.T) {
	_, leader := newLeaderServer(t, 2)
	outsider := serve421(t, func() string { return "" }) // stands in for an attacker's box
	for name, target := range map[string]string{
		"to the leader":   leader.URL,
		"to a non-member": outsider.URL,
	} {
		t.Run(name, func(t *testing.T) {
			follower := serve421(t, func() string { return target })
			log := &hostLog{}
			cl := repl.NewClient(repl.ClientConfig{
				BaseURL: follower.URL,
				HTTP:    &http.Client{Transport: log},
				Seed:    3,
				Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
				Breaker: resilience.BreakerConfig{FailureThreshold: 1},
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := cl.Manifest(ctx)
			if !errors.Is(err, repl.ErrSourceNotLeader) || !resilience.IsPermanent(err) {
				t.Fatalf("Manifest: %v, want a permanent ErrSourceNotLeader", err)
			}
			if got, want := log.sent(), []string{strings.TrimPrefix(follower.URL, "http://")}; !slices.Equal(got, want) {
				t.Fatalf("requests went to %v, want only %v", got, want)
			}
			if cl.Base() != follower.URL {
				t.Fatalf("a 421 moved the base to %q", cl.Base())
			}
			if cl.Breaker().State() != resilience.Closed {
				t.Fatal("a 421 was charged to the breaker")
			}
		})
	}
}

func TestClientRedirectWithoutLocationStaysPermanent(t *testing.T) {
	f := serve421(t, func() string { return "" })
	cl := repl.NewClient(repl.ClientConfig{BaseURL: f.URL, Seed: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Manifest(ctx); !errors.Is(err, repl.ErrSourceNotLeader) {
		t.Fatalf("bare 421: %v, want ErrSourceNotLeader", err)
	}
}

func TestClientRedirectResetsBreaker(t *testing.T) {
	_, leader := newLeaderServer(t, 1)
	cl := repl.NewClient(repl.ClientConfig{BaseURL: "http://127.0.0.1:1", Seed: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Hammer the dead address until the breaker opens.
	for i := 0; i < 10 && cl.Breaker().Opens() == 0; i++ {
		cl.Manifest(ctx)
	}
	if cl.Breaker().Opens() == 0 {
		t.Fatal("breaker never opened against a dead leader")
	}
	// Redirect (the elector's leader-change path) must clear the state
	// charged to the dead address.
	cl.Redirect(leader.URL)
	if _, err := cl.Manifest(ctx); err != nil {
		t.Fatalf("manifest after Redirect: %v", err)
	}
}

func TestPromoteAtLeastFloorsEpoch(t *testing.T) {
	_, leader := newLeaderServer(t, 3)
	f, fst := newFollowerPair(t, leader.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	node := repl.NewFollowerNode(f, leader.URL, repl.PromotePlan{Dir: t.TempDir(), Store: fst})
	if node.LeaderURL() != leader.URL {
		t.Fatalf("LeaderURL = %q", node.LeaderURL())
	}
	node.SetLeaderURL("http://elsewhere:9")
	if node.LeaderURL() != "http://elsewhere:9" {
		t.Fatalf("SetLeaderURL not applied: %q", node.LeaderURL())
	}

	// The follower streamed epoch 1; an election won at term 40 must
	// land the new leader at epoch 40, not 2.
	epoch, err := node.PromoteAtLeast(40)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 40 {
		t.Fatalf("PromoteAtLeast(40) epoch = %d", epoch)
	}
	if node.Durable() == nil {
		t.Fatal("promotion attached no durable store")
	}
	defer node.Durable().Close()
	if node.LeaderURL() != "" {
		t.Fatalf("leader still advertises %q", node.LeaderURL())
	}
	// SetLeaderURL is a follower-only mutation.
	node.SetLeaderURL("http://nope:1")
	if node.LeaderURL() != "" {
		t.Fatal("SetLeaderURL mutated a leader")
	}
}
