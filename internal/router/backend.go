package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/peer"
	"mcbound/internal/telemetry"
)

// roleLeader is the role string a probe reports for the lease holder.
const roleLeader = "leader"

// backend is the router's view of one cluster member: static identity
// plus everything the health poller and the data path learn about it.
type backend struct {
	member cluster.Member
	// base is member.URL parsed, once; cloneRequest copies it per forward.
	base *url.URL

	// requestsOK is this backend's backend_requests{outcome="ok"} series,
	// looked up once instead of on every forward.
	requestsOK *telemetry.Counter

	// lat windows this backend's successful-read latencies; its p95
	// feeds the adaptive hedge delay.
	lat *telemetry.P95Window

	mu sync.Mutex
	// alive is false only when the last probe could not reach the
	// process at all; an unhealthy-but-answering backend stays alive.
	alive bool
	// probed is true once any probe has completed, so an unpolled
	// backend is not mistaken for a dead one at startup.
	probed bool
	role   string
	// leaseHeld mirrors the member's own cluster view (false when the
	// member runs without an elector).
	leaseHeld bool
	// hasElector records whether the probe document carried a cluster
	// section; without one, role alone decides leadership (static
	// single-leader deployments).
	hasElector bool
	// leaderURL is where this member believes the leader lives.
	leaderURL string
	// lagSeconds is the follower's replication lag; 0 for leaders.
	lagSeconds float64
	// followState is the follower three-way state (ok | lagging |
	// disconnected); empty for leaders.
	followState string

	// Passive outlier ejection: consecFails counts consecutive failed
	// forwards, ejectedUntil holds the jittered cooldown deadline.
	consecFails  int
	ejectedUntil time.Time
	ejections    int64
}

// maxProbeBody bounds how much of a health document one probe reads.
const maxProbeBody = 1 << 20

// probe polls the backend's /healthz once and folds the result into the
// backend's state. Any HTTP answer — 200 or a degraded 503, which
// carries the same document — counts as alive; only a failure to reach
// the process marks the backend unreachable. An answer that cannot be
// read as a health document (cut short, over the limit, not the schema)
// is alive with nothing learned, so a glitchy probe neither ejects a
// serving backend nor rewrites what the last clean probe said of it.
func (b *backend) probe(ctx context.Context, hc *http.Client) {
	body, _, err := peer.Do(ctx, hc, peer.Call{Method: http.MethodGet, URL: b.member.URL + "/healthz", Limit: maxProbeBody})
	var answer *peer.Error
	if errors.As(err, &answer) {
		body, err = answer.Body, nil
	}
	if err != nil {
		b.observeProbe(errors.Is(err, peer.ErrBody), nil)
		return
	}
	var doc httpapi.Health
	if json.Unmarshal(body, &doc) != nil {
		b.observeProbe(true, nil)
		return
	}
	b.observeProbe(true, &doc)
}

// observeProbe applies one probe outcome under the lock; a nil doc
// learns nothing beyond reachability.
func (b *backend) observeProbe(alive bool, doc *httpapi.Health) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probed = true
	b.alive = alive
	if !alive || doc == nil {
		return
	}
	if doc.Replication != nil {
		b.role = doc.Replication.Role
		b.leaderURL = strings.TrimRight(doc.Replication.Leader, "/")
		if f := doc.Replication.Follower; f != nil {
			b.lagSeconds = f.LagSeconds
			b.followState = f.State
		} else {
			b.lagSeconds = 0
			b.followState = ""
		}
	}
	b.hasElector = doc.Cluster != nil
	if doc.Cluster != nil {
		b.leaseHeld = doc.Cluster.LeaseHeld
		if doc.Cluster.LeaderURL != "" {
			b.leaderURL = strings.TrimRight(doc.Cluster.LeaderURL, "/")
		}
	}
}

// snapshot returns a consistent copy of the mutable state.
func (b *backend) snapshot() backendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return backendState{
		alive:        b.alive,
		probed:       b.probed,
		role:         b.role,
		leaseHeld:    b.leaseHeld,
		hasElector:   b.hasElector,
		leaderURL:    b.leaderURL,
		lagSeconds:   b.lagSeconds,
		followState:  b.followState,
		ejectedUntil: b.ejectedUntil,
	}
}

type backendState struct {
	alive        bool
	probed       bool
	role         string
	leaseHeld    bool
	hasElector   bool
	leaderURL    string
	lagSeconds   float64
	followState  string
	ejectedUntil time.Time
}

// isLeader reports whether this snapshot self-identifies as the
// cluster's authoritative leader: lease held when an elector runs,
// plain role otherwise.
func (s backendState) isLeader() bool {
	if s.role != roleLeader {
		return false
	}
	return !s.hasElector || s.leaseHeld
}

// ejected reports whether the backend sits in an ejection cooldown.
func (b *backend) ejected(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.ejectedUntil)
}

// observeSuccess clears the consecutive-failure streak (and implicitly
// lets an ejection lapse at its deadline; recovery is time-based).
func (b *backend) observeSuccess() {
	b.mu.Lock()
	b.consecFails = 0
	b.mu.Unlock()
}

// observeFailure counts one failed forward and reports the new streak.
func (b *backend) observeFailure() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	return b.consecFails
}

// eject starts a cooldown ending at until and resets the streak so the
// backend re-enters service with a clean slate.
func (b *backend) eject(until time.Time) {
	b.mu.Lock()
	b.ejectedUntil = until
	b.consecFails = 0
	b.ejections++
	b.mu.Unlock()
}

// ejectionCount reports how many times this backend has been ejected.
func (b *backend) ejectionCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ejections
}
