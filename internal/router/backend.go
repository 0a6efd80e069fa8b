package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"mcbound/internal/cluster"
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

	// res samples this backend's successful-read latencies (seconds);
	// its p95 feeds the adaptive hedge delay.
	res *telemetry.Reservoir

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

// healthDoc is the slice of GET /healthz the router cares about. The
// document is a superset (durability, breaker, replay...); everything
// else is ignored.
type healthDoc struct {
	Status      string `json:"status"`
	Replication *struct {
		Role     string `json:"role"`
		Leader   string `json:"leader"`
		Follower *struct {
			State      string  `json:"state"`
			LagSeconds float64 `json:"replication_lag_seconds"`
		} `json:"follower"`
	} `json:"replication"`
	Cluster *cluster.Status `json:"cluster"`
}

// maxProbeBody bounds how much of a health document one probe reads.
const maxProbeBody = 1 << 20

// probe polls the backend's /healthz once and folds the result into the
// backend's state. Any HTTP answer — 200 or a degraded 503 — counts as
// alive; only a transport failure marks the backend unreachable.
func (b *backend) probe(ctx context.Context, hc *http.Client, now time.Time) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.member.URL+"/healthz", nil)
	if err != nil {
		b.observeProbe(false, healthDoc{})
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		b.observeProbe(false, healthDoc{})
		return
	}
	var doc healthDoc
	derr := json.NewDecoder(io.LimitReader(resp.Body, maxProbeBody)).Decode(&doc)
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxProbeBody))
	resp.Body.Close()
	if derr != nil {
		// Reachable but not speaking the health schema: treat as alive
		// with nothing learned, so a glitchy probe does not eject a
		// serving backend by itself.
		doc = healthDoc{}
	}
	b.observeProbe(true, doc)
}

// observeProbe applies one probe outcome under the lock.
func (b *backend) observeProbe(alive bool, doc healthDoc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probed = true
	b.alive = alive
	if !alive {
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
