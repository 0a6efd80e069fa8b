// Package cluster is the static-membership layer under the elector and
// the HTTP front door: it parses the -peers flag into a fixed membership,
// computes quorum sizes, and keeps a thread-safe last-observed view of
// every member (role, term, applied sequence, freshness) that /healthz
// reports in its "cluster" section. It owns no I/O and no policy — the
// elector feeds it observations, the API reads them back.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Member is one node of the static membership.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Membership is the fixed node set a cluster is configured with. The
// zero value is a single-node cluster of nobody; build one with
// ParsePeers or New.
type Membership struct {
	self Member
	all  []Member // sorted by ID, includes self
}

// New builds a membership from an explicit member list. self must name
// one of the members by ID.
func New(selfID string, members []Member) (Membership, error) {
	if selfID == "" {
		return Membership{}, fmt.Errorf("cluster: empty self node id")
	}
	seen := make(map[string]bool, len(members))
	var m Membership
	for _, mem := range members {
		if mem.ID == "" {
			return Membership{}, fmt.Errorf("cluster: member with empty id (url %q)", mem.URL)
		}
		if mem.URL == "" {
			return Membership{}, fmt.Errorf("cluster: member %s has no url", mem.ID)
		}
		if seen[mem.ID] {
			return Membership{}, fmt.Errorf("cluster: duplicate member id %q", mem.ID)
		}
		seen[mem.ID] = true
		mem.URL = strings.TrimRight(mem.URL, "/")
		m.all = append(m.all, mem)
		if mem.ID == selfID {
			m.self = mem
		}
	}
	if m.self.ID == "" {
		return Membership{}, fmt.Errorf("cluster: self id %q not in member list", selfID)
	}
	sort.Slice(m.all, func(i, j int) bool { return m.all[i].ID < m.all[j].ID })
	return m, nil
}

// ParseMemberList parses an "id=url,id=url,..." spec into a member
// slice without requiring a self entry — the front door's view of the
// fleet, where the router itself is not a member.
func ParseMemberList(spec string) ([]Member, error) {
	var members []Member
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		m := Member{ID: strings.TrimSpace(id), URL: strings.TrimRight(strings.TrimSpace(url), "/")}
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
		seen[m.ID] = true
		members = append(members, m)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return members, nil
}

// ParsePeers parses the -peers flag ("id=url,id=url,...") into a
// membership. The list is the full cluster, so it must include selfID.
func ParsePeers(selfID, spec string) (Membership, error) {
	members, err := ParseMemberList(spec)
	if err != nil {
		return Membership{}, err
	}
	return New(selfID, members)
}

// Self returns this process's own member entry.
func (m Membership) Self() Member { return m.self }

// All returns every member, self included, sorted by ID.
func (m Membership) All() []Member { return m.all }

// Peers returns every member except self, sorted by ID.
func (m Membership) Peers() []Member {
	out := make([]Member, 0, len(m.all))
	for _, mem := range m.all {
		if mem.ID != m.self.ID {
			out = append(out, mem)
		}
	}
	return out
}

// Size is the configured cluster size (zero for the zero value).
func (m Membership) Size() int { return len(m.all) }

// Quorum is the majority size: floor(n/2)+1. A one-node cluster has
// quorum 1, so a solo leader is always quorate.
func (m Membership) Quorum() int { return len(m.all)/2 + 1 }

// MemberStatus is one member row of the cluster Status.
type MemberStatus struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	Self       bool   `json:"self,omitempty"`
	Role       string `json:"role"` // leader | follower | candidate | unknown
	Term       uint64 `json:"term"`
	AppliedSeq uint64 `json:"applied_seq"`
	// LastSeenSeconds is the age of the newest observation of this
	// member; -1 means it has never been observed.
	LastSeenSeconds float64 `json:"last_seen_seconds"`
}

// Status is /healthz's "cluster" section: the local node's view of the
// whole cluster. Every field is this node's observation, so two nodes
// can disagree transiently — the doc reports a view, not the truth.
type Status struct {
	Self           string         `json:"self"`
	Role           string         `json:"role"`
	Term           uint64         `json:"term"`
	LeaderID       string         `json:"leader_id,omitempty"`
	LeaderURL      string         `json:"leader_url,omitempty"`
	LeaseHeld      bool           `json:"lease_held"`
	HeartbeatAge   float64        `json:"heartbeat_age_seconds"`
	QuorumSize     int            `json:"quorum_size"`
	Members        []MemberStatus `json:"members"`
	ElectionsTotal int64          `json:"elections_total"`
	FailoversTotal int64          `json:"failovers_total"`
}

// observation is what the view remembers about one member.
type observation struct {
	role       string
	term       uint64
	appliedSeq uint64
	at         time.Time
}

// View is the thread-safe last-observed state of every member. The
// elector writes it from heartbeats, acks and vote traffic; the HTTP
// layer reads it for /healthz.
type View struct {
	mu  sync.Mutex
	obs map[string]observation
}

// NewView builds an empty view.
func NewView() *View { return &View{obs: make(map[string]observation)} }

// Observe records a sighting of member id. Empty role leaves the prior
// role in place (an ack proves liveness without revealing role).
func (v *View) Observe(id, role string, term, appliedSeq uint64, at time.Time) {
	if id == "" {
		return
	}
	v.mu.Lock()
	prev := v.obs[id]
	if role == "" {
		role = prev.role
	}
	v.obs[id] = observation{role: role, term: term, appliedSeq: appliedSeq, at: at}
	v.mu.Unlock()
}

// Snapshot renders the member table in membership order as of now.
func (v *View) Snapshot(m Membership, now time.Time) []MemberStatus {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]MemberStatus, 0, m.Size())
	for _, mem := range m.All() {
		st := MemberStatus{
			ID:              mem.ID,
			URL:             mem.URL,
			Self:            mem.ID == m.Self().ID,
			Role:            "unknown",
			LastSeenSeconds: -1,
		}
		if ob, ok := v.obs[mem.ID]; ok {
			if ob.role != "" {
				st.Role = ob.role
			}
			st.Term = ob.term
			st.AppliedSeq = ob.appliedSeq
			if !ob.at.IsZero() {
				st.LastSeenSeconds = now.Sub(ob.at).Seconds()
			}
		}
		out = append(out, st)
	}
	return out
}
