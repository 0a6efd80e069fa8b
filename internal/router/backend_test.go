package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/repl"
)

// healthHandler answers /healthz with doc under the given status.
func healthHandler(status int, doc httpapi.Health) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(doc)
	}
}

// Every row starts from a backend whose last clean probe read "elected
// leader, lease lost" — role leader, an elector, no lease: not a leader
// to forward writes to — and probes it once more.
func TestProbeFoldsOnlyWhatItLearned(t *testing.T) {
	elected := func(status string, held bool) httpapi.Health {
		return httpapi.Health{
			Status:      status,
			Replication: &repl.NodeStatus{Role: roleLeader},
			Cluster:     &cluster.Status{Self: "n1", Role: roleLeader, LeaseHeld: held},
		}
	}
	rows := []struct {
		name                  string
		answer                http.HandlerFunc
		wantAlive, wantLeader bool
	}{
		{"the same document again, on its 503", healthHandler(http.StatusServiceUnavailable, elected("lease_lost", false)), true, false},
		{"lease re-held", healthHandler(http.StatusOK, elected("ok", true)), true, true},
		// At the parent a body that did not decode was folded in as an
		// empty document: hasElector cleared, role kept, and the node
		// became the leader writes are forwarded to.
		{"a body that is not the schema", func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "<html>proxy error</html>")
		}, true, false},
		{"a body one byte over the limit", func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, `{"status":"`+strings.Repeat("x", maxProbeBody)+`"}`)
		}, true, false},
		{"a body cut short", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", "4096")
			io.WriteString(w, `{"status":`)
		}, true, false},
		{"no answer at all", func(w http.ResponseWriter, _ *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, false, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var answer atomic.Value
			answer.Store(healthHandler(http.StatusServiceUnavailable, elected("lease_lost", false)))
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				answer.Load().(http.HandlerFunc)(w, req)
			}))
			defer srv.Close()
			b := &backend{member: cluster.Member{ID: "n1", URL: srv.URL}}
			b.probe(context.Background(), srv.Client())
			if s := b.snapshot(); !s.alive || s.role != roleLeader || !s.hasElector || s.isLeader() {
				t.Fatalf("clean lease-lost probe read %+v", s)
			}
			answer.Store(r.answer)
			b.probe(context.Background(), srv.Client())
			s := b.snapshot()
			if s.alive != r.wantAlive || s.isLeader() != r.wantLeader {
				t.Fatalf("alive=%t leader=%t, want alive=%t leader=%t (%+v)", s.alive, s.isLeader(), r.wantAlive, r.wantLeader, s)
			}
		})
	}
}
