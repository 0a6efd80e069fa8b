package httpapi

import (
	"net/http"

	"mcbound/internal/cluster"
	"mcbound/internal/repl"
	"mcbound/internal/store"
)

// Health is the GET /healthz document, the one status document: this
// server encodes it and the front door (internal/router) decodes it.
// Status is the verdict a load balancer acts on — ok or degraded with a
// 200; unavailable, lagging, disconnected or lease_lost with a 503 —
// and each subsystem the node runs adds its section: Durability with
// -data-dir, Replication with a replication role, Cluster (membership,
// roles, terms and failover counters) with -peers.
// Fields are declared in key order, the order the map this type
// replaced was encoded in, so the bytes on the wire are unchanged.
type Health struct {
	Breaker          string                  `json:"breaker,omitempty"`
	Cluster          *cluster.Status         `json:"cluster,omitempty"`
	Degraded         bool                    `json:"degraded"`
	Durability       *store.DurabilityHealth `json:"durability,omitempty"`
	Jobs             int                     `json:"jobs"`
	Replication      *repl.NodeStatus        `json:"replication,omitempty"`
	StalenessSeconds *float64                `json:"staleness_seconds,omitempty"`
	Status           string                  `json:"status"`
	Trained          bool                    `json:"trained"`
}

// handleHealth is the readiness probe: 200 while the framework can
// answer inference (fresh, stale or via the lookup fallback), 503 when
// it cannot. "degraded" flags fallback-only serving.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	doc := Health{
		Status:   "ok",
		Trained:  s.fw.Trained(),
		Degraded: s.fw.Degraded(),
		Jobs:     s.store.Len(),
	}
	httpStatus := http.StatusOK
	switch {
	case !s.fw.Ready():
		doc.Status, httpStatus = "unavailable", http.StatusServiceUnavailable
	case doc.Degraded:
		doc.Status = "degraded"
	}
	if s.repl != nil {
		st := s.repl.Status()
		doc.Replication = &st
		// A lagging or disconnected follower serves a stale model; the
		// three-way state is the top-level status so a load balancer can
		// eject the replica on the probe alone.
		if st.Follower != nil && st.Follower.State != repl.StateOK {
			doc.Status, httpStatus = st.Follower.State, http.StatusServiceUnavailable
		}
	}
	if age, ok := s.fw.ModelAge(s.clock.Now()); ok {
		secs := age.Seconds()
		doc.StalenessSeconds = &secs
	}
	if s.breaker != nil {
		doc.Breaker = s.breaker.State().String()
	}
	if d := s.currentDurable(); d != nil {
		h := d.Health()
		doc.Durability = &h
	}
	if s.elector != nil {
		cst := s.elector.Status()
		doc.Cluster = &cst
		// A leader that cannot prove its lease must fail readiness, or
		// the front door keeps routing writes into lease_lost rejections.
		if s.elector.IsLeader() && !cst.LeaseHeld && httpStatus == http.StatusOK {
			doc.Status, httpStatus = "lease_lost", http.StatusServiceUnavailable
		}
	}
	s.writeJSON(w, httpStatus, doc)
}
