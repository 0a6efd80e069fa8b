package router

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/repl"
)

var updateHealth = flag.Bool("update-health", false, "rewrite testdata/healthz.golden from the router's /healthz")

// TestHealthMatchesGolden pins the router's own /healthz byte for byte —
// key order, number formatting, the omitted role of a backend not yet
// probed, the trailing newline — over a fleet with one backend in each
// state the document can show: leading, following with lag, unreachable,
// ejected, never probed. The golden was recorded from the handler that
// assembled the document with Fprintf.
func TestHealthMatchesGolden(t *testing.T) {
	rt, err := New(Config{Backends: []cluster.Member{
		{ID: "n1", URL: "http://n1:8080"},
		{ID: "n2", URL: "http://n2:8080"},
		{ID: "n3", URL: "http://n3:8080"},
		{ID: "n4", URL: "http://n4:8080"},
		{ID: "n5", URL: "http://n5:8080"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	follower := func(lag float64) *httpapi.Health {
		return &httpapi.Health{Status: "ok", Replication: &repl.NodeStatus{
			Role: "follower", Leader: "http://n1:8080",
			Follower: &repl.FollowerStatus{State: repl.StateOK, LagSeconds: lag},
		}}
	}
	rt.backends[0].observeProbe(true, &httpapi.Health{
		Status:      "ok",
		Replication: &repl.NodeStatus{Role: roleLeader},
		Cluster:     &cluster.Status{Self: "n1", Role: roleLeader, LeaseHeld: true},
	})
	rt.backends[1].observeProbe(true, follower(0.25))
	rt.backends[2].observeProbe(true, follower(1.5e-7))
	rt.backends[2].observeProbe(false, nil)
	rt.backends[3].observeProbe(true, follower(0))
	rt.backends[3].eject(rt.clock.Now().Add(time.Hour))
	rt.budget.Allow() // one retry spent, part of it earned back: a fractional token count
	rt.budget.OnSuccess()

	rec := httptest.NewRecorder()
	rt.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	const golden = "testdata/healthz.golden"
	if *updateHealth {
		if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Errorf("/healthz is\n%swant\n%s", got, want)
	}
}
