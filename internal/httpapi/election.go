package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"

	"mcbound/internal/election"
	"mcbound/internal/telemetry"
)

// handleLeaseGet serves GET /v1/lease: the leader's own lease, or a
// follower's relay of its last observation (so any member can answer
// leader discovery). Rides at Critical priority — the failure detector
// must see through overload, or load spikes read as leader death.
func (s *Server) handleLeaseGet(w http.ResponseWriter, _ *http.Request) {
	l, err := s.elector.LeaseDoc()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, election.LeaseDoc{Lease: l})
}

// handleLeaseAck serves POST /v1/lease/ack: heartbeat acknowledgments
// (counted toward the leader's quorum freshness) and vote requests
// (Claim=true, judged by the election rules). Always 200 — granted or
// not is in the body; transport errors are the only failures.
func (s *Server) handleLeaseAck(w http.ResponseWriter, r *http.Request) {
	var req election.AckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, badRequest(fmt.Errorf("bad ack payload: %w", err)))
		return
	}
	if req.NodeID == "" {
		s.writeError(w, badRequest(fmt.Errorf("node_id is required")))
		return
	}
	s.writeJSON(w, http.StatusOK, s.elector.HandleAck(req))
}

// registerClusterMetrics exposes the election posture.
func registerClusterMetrics(reg *telemetry.Registry, e *election.Elector) {
	reg.GaugeFunc("mcbound_cluster_is_leader",
		"1 when this node's elector is in leader mode, else 0.", nil,
		func() float64 {
			if e.IsLeader() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mcbound_cluster_lease_held",
		"1 while this node holds an ackable leadership lease (leader with fresh quorum acks), else 0.", nil,
		func() float64 {
			if e.Held() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mcbound_cluster_term",
		"Leadership lease term this node operates under (equals the WAL fencing epoch on the leader).", nil,
		func() float64 { return float64(e.Term()) })
	reg.GaugeFunc("mcbound_cluster_members",
		"Configured cluster membership size (static).", nil,
		func() float64 { return float64(e.Members()) })
	reg.GaugeFunc("mcbound_cluster_heartbeat_age_seconds",
		"Seconds since the last heartbeat signal (a follower's last successful lease poll).", nil,
		e.HeartbeatAge)
	reg.CounterFunc("mcbound_cluster_elections_total",
		"Elections this node has started.", nil, e.Elections)
	reg.CounterFunc("mcbound_cluster_failovers_total",
		"Elections this node has won (unassisted promotions to leader).", nil, e.Failovers)
}
