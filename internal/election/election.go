// Package election is the self-driving failover layer: a dependency-free,
// lease-based leader elector built on the WAL fencing epoch.
//
// The protocol is deliberately pull-shaped. Followers poll the leader's
// GET /v1/lease every heartbeat and answer with POST /v1/lease/ack; the
// leader's lease counts as *held* only while a majority of the static
// membership (self included) has acked within one TTL. A leader that
// loses quorum — partitioned away, blackholed, or wedged on a dead disk
// — therefore fences its own write path (typed lease_lost) strictly
// before any follower's local expiry can elect a successor: a follower
// waits for its own receipt + TTL, plus MaxMissed missed heartbeats,
// plus a seeded randomized election timeout, all of which start no
// earlier than the ack the leader's freshness window is counting from.
//
// Elections are Raft-shaped votes carried on the same ack surface
// (Claim=true): one vote per term, claims denied while the voter's own
// observed lease is fresh (pre-vote-style non-disruption), and position
// rules — a voter never grants a candidate behind its own applied
// sequence, ties broken toward the smaller node ID. The winner drains
// the dead leader's durable prefix (BeforePromote) and promotes through
// repl.Node.PromoteAtLeast, bumping the fencing epoch past every term
// the cluster voted on; split-brain is killed twice over, by the quorum
// lease on the ack path and by the epoch on the replication path.
package election

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/repl"
	"mcbound/internal/stats"
)

// ErrLeaseLost marks a write reaching a leader whose lease is not held:
// quorum acks went stale, or the node abdicated (wedged WAL, deposed).
// httpapi maps it to a typed 503 — the request is safe to retry against
// the cluster once a successor leads.
var ErrLeaseLost = errors.New("election: leadership lease not held")

// ErrNoLease is returned by GET /v1/lease when the node has no lease to
// report: an abdicated ex-leader, or a follower that has never observed
// one.
var ErrNoLease = errors.New("election: no active lease")

// Mode is the elector's position, one step finer than repl.Role: a
// candidate is a follower mid-election.
type Mode int

// The three elector modes.
const (
	ModeFollower Mode = iota
	ModeCandidate
	ModeLeader
)

// String names the mode for status docs.
func (m Mode) String() string {
	switch m {
	case ModeLeader:
		return "leader"
	case ModeCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// requestTimeout bounds each transport call (lease poll, ack, vote).
const requestTimeout = 2 * time.Second

// Config wires an Elector.
type Config struct {
	// Members is the static cluster membership, self included (required,
	// size >= 1).
	Members cluster.Membership
	// Node is the replication node whose role the elector drives
	// (required).
	Node *repl.Node
	// LeaseTTL is the freshness window: a leader holds its lease while a
	// quorum acked within this long; a follower's observed lease expires
	// this long after receipt. <= 0 selects 3 s. Must exceed
	// HeartbeatEvery.
	LeaseTTL time.Duration
	// HeartbeatEvery is the elector step cadence: followers poll the
	// lease and ack at this rate. <= 0 selects 500 ms.
	HeartbeatEvery time.Duration
	// MaxMissed is how many consecutive failed lease polls a follower
	// tolerates before suspecting the leader (on top of lease expiry);
	// < 1 selects 3.
	MaxMissed int
	// ElectionTimeout is the base T of the randomized election delay:
	// each armed election fires after uniform [T, 2T), re-drawn per
	// attempt so the fleet doesn't stampede. <= 0 selects 1 s.
	ElectionTimeout time.Duration
	// Seed drives the election-timeout jitter and step jitter.
	Seed uint64
	// Clock overrides the wall clock: every lease instant, each
	// transport call's deadline and, in Run, the step timer
	// (deterministic tests). The default transport backs off on it too.
	Clock clock.Clock
	// Transport overrides the HTTP lease/ack transport (fault injection).
	Transport Transport
	// Logger, when set, receives elector state transitions, each with
	// the term it happened at.
	Logger *slog.Logger
	// OnLeaderChange, when set, observes every adopted leader URL (the
	// server repoints the replication client and the not_leader redirect
	// through it). Called outside the elector lock.
	OnLeaderChange func(url string)
	// BeforePromote, when set, runs after this node wins an election and
	// before it promotes — the final-drain hook that pulls the dead
	// leader's remaining durable prefix. Must bound its own runtime.
	BeforePromote func(ctx context.Context)
}

// Elector runs the lease/election state machine for one node.
type Elector struct {
	cfg     Config
	self    cluster.Member
	members cluster.Membership
	node    *repl.Node
	tr      Transport
	clock   clock.Clock
	view    *cluster.View
	log     *slog.Logger
	loop    *clock.Loop

	mu          sync.Mutex
	rng         *stats.RNG
	mode        Mode
	term        uint64 // leader: lease term; follower: term of last adopted lease
	maxTermSeen uint64 // highest term participated in (>= term)
	votedTerm   uint64
	votedFor    string
	leaderID    string
	leaderURL   string
	notifiedURL string    // last URL delivered to OnLeaderChange
	leaseExpiry time.Time // follower: local expiry of the observed lease
	lastHeard   time.Time // follower: last successful lease poll; leader: last step
	missed      int
	electionAt  time.Time            // armed election deadline; zero = unarmed
	acks        map[string]time.Time // leader: per-peer last ack receipt
	ackSeqs     map[string]uint64    // leader: per-peer applied seq
	held        bool
	abdicated   bool
	abdiReason  string
	start       time.Time // boot instant: unacked peers count fresh for one TTL
	elections   int64
	failovers   int64
	lastErr     string
}

// New builds an Elector, initializing from the node's current role.
func New(cfg Config) (*Elector, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("election: Config.Node is required")
	}
	if cfg.Members.Size() < 1 {
		return nil, fmt.Errorf("election: Config.Members is required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.LeaseTTL <= cfg.HeartbeatEvery {
		return nil, fmt.Errorf("election: LeaseTTL %v must exceed HeartbeatEvery %v", cfg.LeaseTTL, cfg.HeartbeatEvery)
	}
	if cfg.MaxMissed < 1 {
		cfg.MaxMissed = 3
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Transport == nil {
		cfg.Transport = NewHTTPTransport(nil, cfg.Clock, cfg.Seed)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	e := &Elector{
		cfg:     cfg,
		self:    cfg.Members.Self(),
		members: cfg.Members,
		node:    cfg.Node,
		tr:      cfg.Transport,
		clock:   cfg.Clock,
		view:    cluster.NewView(),
		log:     cfg.Logger,
		rng:     stats.NewRNG(cfg.Seed),
		acks:    make(map[string]time.Time),
		ackSeqs: make(map[string]uint64),
	}
	e.loop = clock.NewLoop(e.clock, e.stepDelay, e.Tick)
	now := e.clock.Now()
	e.start = now
	e.lastHeard = now
	st := cfg.Node.Status()
	e.term = st.Epoch
	e.maxTermSeen = st.Epoch
	if cfg.Node.Role() == repl.RoleLeader {
		e.mode = ModeLeader
		e.held = true
		e.leaderID = e.self.ID
		e.leaderURL = e.self.URL
		e.notifiedURL = e.self.URL
	} else {
		e.mode = ModeFollower
		e.leaderURL = cfg.Node.LeaderURL()
		e.notifiedURL = e.leaderURL
		// Boot grace: the first suspicion clock starts now, not in the
		// past — a restarted follower doesn't instantly elect.
		e.leaseExpiry = now.Add(cfg.LeaseTTL)
	}
	return e, nil
}

// Run drives the elector until ctx is done or Stop is called.
func (e *Elector) Run(ctx context.Context) { e.loop.Run(ctx, e.stepDelay()) }

// Stop halts Run, cutting a step's transport calls short, and waits for
// it to exit. Safe to call more than once.
func (e *Elector) Stop() { e.loop.Stop() }

// stepDelay jitters the heartbeat cadence ±10% so fleet steps
// decorrelate (the same posture as the follower WAL poll).
func (e *Elector) stepDelay() time.Duration {
	e.mu.Lock()
	r := e.rng.Float64()
	e.mu.Unlock()
	return clock.Jitter(e.cfg.HeartbeatEvery, clock.DefaultJitter, r)
}

// Tick runs one elector step (tests drive it directly with a fake
// clock; Run calls it on the heartbeat cadence).
func (e *Elector) Tick(ctx context.Context) {
	e.mu.Lock()
	mode := e.mode
	e.mu.Unlock()
	if mode == ModeLeader {
		e.leaderStep()
	} else {
		e.followerStep(ctx)
	}
}

// ---------------------------------------------------------------------
// Leader side

// leaderStep renews the lease, abdicates over a wedged WAL, and
// re-evaluates quorum freshness. Leaders make no network calls — the
// heartbeat is pulled by followers.
func (e *Elector) leaderStep() {
	e.mu.Lock()
	if e.mode != ModeLeader {
		e.mu.Unlock()
		return
	}
	now := e.clock.Now()
	if !e.abdicated {
		if d := e.node.Durable(); d != nil {
			if werr := d.WAL().Err(); werr != nil {
				e.abdicateLocked(fmt.Sprintf("wal wedged: %v", werr))
			}
		}
	}
	if e.abdicated {
		e.mu.Unlock()
		return
	}
	// A manual promote (or boot) may have moved the epoch under us.
	if ep := e.nodeEpochLocked(); ep > e.term {
		e.term = ep
	}
	if e.term > e.maxTermSeen {
		e.maxTermSeen = e.term
	}
	e.lastHeard = now
	wasHeld := e.held
	e.held = e.quorumFreshLocked(now)
	if wasHeld != e.held {
		if e.held {
			e.log.Info("election: lease re-held (quorum acks fresh)", "term", e.term)
		} else {
			e.log.Warn("election: lease lost (quorum acks stale); writes fenced", "term", e.term)
		}
	}
	e.view.Observe(e.self.ID, "leader", e.term, e.appliedSeqLocked(), now)
	e.mu.Unlock()
}

// quorumFreshLocked reports whether a majority (self included) acked
// within one TTL. Peers never heard from count fresh for one TTL after
// boot/acquisition, so a new leader isn't fenced before its followers'
// first ack round. Caller holds e.mu.
func (e *Elector) quorumFreshLocked(now time.Time) bool {
	fresh := 1 // self
	for _, p := range e.members.Peers() {
		at, ok := e.acks[p.ID]
		if ok && now.Sub(at) <= e.cfg.LeaseTTL {
			fresh++
		} else if !ok && now.Sub(e.start) <= e.cfg.LeaseTTL {
			fresh++
		}
	}
	return fresh >= e.members.Quorum()
}

// abdicateLocked permanently steps this leader's lease down: it stops
// acking writes and stops serving its lease, while the node itself
// keeps serving the durable WAL prefix for the successor's drain.
// Caller holds e.mu.
func (e *Elector) abdicateLocked(reason string) {
	if e.abdicated {
		return
	}
	e.abdicated = true
	e.abdiReason = reason
	e.held = false
	e.log.Warn("election: abdicating leadership", "term", e.term, "reason", reason)
}

// leaseLocked renders the current lease document. Caller holds e.mu.
func (e *Elector) leaseLocked(now time.Time) Lease {
	return Lease{
		Term:            e.term,
		HolderID:        e.leaderID,
		HolderURL:       e.leaderURL,
		TTLSeconds:      e.cfg.LeaseTTL.Seconds(),
		RenewedUnixNano: now.UnixNano(),
	}
}

// ---------------------------------------------------------------------
// Follower side

// followerStep polls the leader's lease, acks it, and runs the failure
// detector: missed polls + local lease expiry arm a randomized election
// timeout; an armed timeout that comes due runs an election.
func (e *Elector) followerStep(ctx context.Context) {
	e.mu.Lock()
	now := e.clock.Now()
	target := e.leaderURL
	electionDue := !e.electionAt.IsZero() && !now.Before(e.electionAt)
	e.view.Observe(e.self.ID, e.mode.String(), e.term, e.appliedSeqLocked(), now)
	e.mu.Unlock()

	if electionDue {
		e.runElection(ctx)
		return
	}

	if target != "" && target != e.self.URL {
		cctx, cancel := clock.WithTimeout(ctx, e.clock, requestTimeout)
		lease, err := e.tr.GetLease(cctx, target)
		cancel()
		if err == nil && e.adoptLease(lease, false) {
			e.sendAck(ctx, lease)
			return
		}
		e.mu.Lock()
		e.missed++
		if err != nil {
			e.lastErr = err.Error()
		} else {
			e.lastErr = fmt.Sprintf("stale lease from %s (term %d)", target, lease.Term)
		}
		e.mu.Unlock()
	} else {
		e.mu.Lock()
		e.missed++
		e.mu.Unlock()
	}

	e.mu.Lock()
	now = e.clock.Now()
	suspect := e.missed >= e.cfg.MaxMissed && now.After(e.leaseExpiry)
	armed := !e.electionAt.IsZero()
	e.mu.Unlock()
	if !suspect {
		return
	}

	// Suspicion: sweep the other members for a newer lease before
	// electing — the cluster may already have failed over without us.
	if e.discoverLeader(ctx) {
		return
	}
	if !armed {
		e.mu.Lock()
		if e.electionAt.IsZero() {
			d := e.drawElectionDelayLocked()
			e.electionAt = e.clock.Now().Add(d)
			e.log.Info("election: leader suspected (lease expired); election armed",
				"leader", target, "missed", e.missed, "in", d, "term", e.term)
		}
		e.mu.Unlock()
	}
}

// adoptLease applies an observed lease. Direct polls (viaPeer=false)
// accept any term at or above the last adopted one; leases relayed by
// peers (viaPeer=true) must carry a strictly newer term, so a cluster
// full of stale views of a dead leader can't keep resurrecting it.
// Returns true when the lease was adopted.
func (e *Elector) adoptLease(l Lease, viaPeer bool) bool {
	if l.HolderURL == "" || l.Term == 0 {
		return false
	}
	var changed string
	e.mu.Lock()
	if e.mode == ModeLeader {
		e.mu.Unlock()
		return false
	}
	ok := l.Term > e.term || (!viaPeer && l.Term == e.term)
	if !ok {
		e.mu.Unlock()
		return false
	}
	now := e.clock.Now()
	if l.Term > e.term {
		e.log.Info("election: adopted lease", "term", l.Term, "holder", l.HolderID, "holder_url", l.HolderURL)
	}
	// Compare against the last URL actually delivered to OnLeaderChange,
	// not e.leaderURL: granting a vote repoints leaderURL presumptively,
	// and the adoption that follows must still re-target the data plane.
	if e.notifiedURL != l.HolderURL {
		changed = l.HolderURL
		e.notifiedURL = l.HolderURL
	}
	e.term = l.Term
	if l.Term > e.maxTermSeen {
		e.maxTermSeen = l.Term
	}
	e.leaderID = l.HolderID
	e.leaderURL = l.HolderURL
	ttl := time.Duration(l.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = e.cfg.LeaseTTL
	}
	e.leaseExpiry = now.Add(ttl)
	e.lastHeard = now
	e.missed = 0
	e.electionAt = time.Time{}
	e.mode = ModeFollower
	e.lastErr = ""
	e.view.Observe(l.HolderID, "leader", l.Term, 0, now)
	e.mu.Unlock()
	if changed != "" && e.cfg.OnLeaderChange != nil {
		e.cfg.OnLeaderChange(changed)
	}
	return true
}

// sendAck posts the heartbeat acknowledgment for an adopted lease.
func (e *Elector) sendAck(ctx context.Context, l Lease) {
	e.mu.Lock()
	req := AckRequest{
		NodeID:     e.self.ID,
		URL:        e.self.URL,
		Term:       e.term,
		AppliedSeq: e.appliedSeqLocked(),
	}
	target := e.leaderURL
	e.mu.Unlock()
	if target == "" {
		return
	}
	cctx, cancel := clock.WithTimeout(ctx, e.clock, requestTimeout)
	defer cancel()
	if _, err := e.tr.Ack(cctx, target, req); err != nil {
		e.mu.Lock()
		e.lastErr = fmt.Sprintf("ack %s: %v", target, err)
		e.mu.Unlock()
	}
}

// discoverLeader probes every other member in parallel for a lease
// newer than the last adopted one. Returns true if one was adopted.
func (e *Elector) discoverLeader(ctx context.Context) bool {
	peers := e.members.Peers()
	if len(peers) == 0 {
		return false
	}
	cctx, cancel := clock.WithTimeout(ctx, e.clock, requestTimeout)
	defer cancel()
	leases := make(chan Lease, len(peers))
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p cluster.Member) {
			defer wg.Done()
			if l, err := e.tr.GetLease(cctx, p.URL); err == nil {
				leases <- l
			}
		}(p)
	}
	wg.Wait()
	close(leases)
	var best Lease
	for l := range leases {
		if l.Term > best.Term {
			best = l
		}
	}
	return best.Term > 0 && e.adoptLease(best, true)
}

// drawElectionDelayLocked draws uniform [T, 2T). Caller holds e.mu.
func (e *Elector) drawElectionDelayLocked() time.Duration {
	base := e.cfg.ElectionTimeout
	return base + time.Duration(e.rng.Float64()*float64(base))
}

// runElection claims the next term and asks every other member for its
// vote. A majority (self included) wins: the candidate drains the dead
// leader's remaining durable prefix and promotes at the claimed term.
func (e *Elector) runElection(ctx context.Context) {
	e.mu.Lock()
	now := e.clock.Now()
	if e.mode == ModeLeader || e.electionAt.IsZero() || now.Before(e.electionAt) {
		e.mu.Unlock()
		return
	}
	claim := e.maxTermSeen + 1
	e.maxTermSeen = claim
	e.votedTerm = claim
	e.votedFor = e.self.ID
	e.mode = ModeCandidate
	e.elections++
	// Back off for the next attempt now; an adopted lease or a granted
	// vote disarms it, a lost election leaves it armed.
	e.electionAt = now.Add(e.drawElectionDelayLocked())
	mySeq := e.appliedSeqLocked()
	e.mu.Unlock()
	e.log.Info("election: claiming term", "term", claim, "applied_seq", mySeq)

	req := AckRequest{NodeID: e.self.ID, URL: e.self.URL, Term: claim, AppliedSeq: mySeq, Claim: true}
	peers := e.members.Peers()
	cctx, cancel := clock.WithTimeout(ctx, e.clock, requestTimeout)
	results := make(chan AckResponse, len(peers))
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p cluster.Member) {
			defer wg.Done()
			if resp, err := e.tr.Ack(cctx, p.URL, req); err == nil {
				results <- resp
			}
		}(p)
	}
	wg.Wait()
	cancel()
	close(results)

	votes := 1 // self
	maxDenied := claim
	now = e.clock.Now()
	for resp := range results {
		e.view.Observe(resp.NodeID, "", resp.Term, resp.AppliedSeq, now)
		if resp.Granted {
			votes++
		} else if resp.Term > maxDenied {
			maxDenied = resp.Term
		}
	}
	quorum := e.members.Quorum()
	if votes < quorum {
		e.mu.Lock()
		if e.mode == ModeCandidate {
			e.mode = ModeFollower
		}
		// Catch up to the voters that denied us as stale: a rival
		// candidate's claims raise only its own maxTermSeen, so without
		// adopting the denial's term two candidates with equal positions
		// can leapfrog forever — the smaller ID (which wins the tie-break)
		// trailing the larger ID's self-bumped terms indefinitely. Raising
		// our own horizon disrupts nobody else.
		if maxDenied > e.maxTermSeen {
			e.maxTermSeen = maxDenied
		}
		e.lastErr = fmt.Sprintf("election term %d: %d/%d votes", claim, votes, quorum)
		e.mu.Unlock()
		e.log.Info("election: term lost", "term", claim, "votes", votes, "quorum", quorum)
		return
	}
	e.log.Info("election: term won; draining and promoting", "term", claim, "votes", votes, "quorum", quorum)
	e.becomeLeader(ctx, claim, true, true)
}

// becomeLeader drains (optionally) and promotes this node at or above
// term, then installs leader state. Used by won elections (converge
// true: a manual promote racing the election is a success, adopt its
// epoch) and by the manual promote path (converge false: the second of
// two concurrent promotions loses with the typed ErrAlreadyLeader).
func (e *Elector) becomeLeader(ctx context.Context, term uint64, countFailover, converge bool) (uint64, error) {
	if e.cfg.BeforePromote != nil {
		e.cfg.BeforePromote(ctx)
	}
	epoch, err := e.node.PromoteAtLeast(term)
	if converge && errors.Is(err, repl.ErrAlreadyLeader) {
		if e.node.Role() == repl.RoleLeader {
			epoch, err = e.node.Status().Epoch, nil
		}
	}
	if err != nil {
		e.mu.Lock()
		if e.mode == ModeCandidate {
			e.mode = ModeFollower
		}
		e.lastErr = "promote: " + err.Error()
		e.mu.Unlock()
		e.log.Error("election: promote failed", "term", term, "err", err)
		return 0, err
	}
	e.mu.Lock()
	now := e.clock.Now()
	alreadyLeader := e.mode == ModeLeader
	e.mode = ModeLeader
	e.term = epoch
	if epoch > e.maxTermSeen {
		e.maxTermSeen = epoch
	}
	e.leaderID = e.self.ID
	e.leaderURL = e.self.URL
	e.notifiedURL = e.self.URL
	e.abdicated = false
	e.abdiReason = ""
	e.held = true
	e.start = now
	e.lastHeard = now
	e.missed = 0
	e.electionAt = time.Time{}
	e.acks = make(map[string]time.Time)
	e.ackSeqs = make(map[string]uint64)
	e.lastErr = ""
	if countFailover && !alreadyLeader {
		e.failovers++
	}
	e.mu.Unlock()
	e.log.Info("election: leading", "epoch", epoch)
	if e.cfg.OnLeaderChange != nil {
		e.cfg.OnLeaderChange(e.self.URL)
	}
	return epoch, nil
}

// ---------------------------------------------------------------------
// Surface consumed by httpapi

// HandleAck answers POST /v1/lease/ack: heartbeat acks are recorded
// toward quorum freshness, vote requests are judged by the election
// rules.
func (e *Elector) HandleAck(req AckRequest) AckResponse {
	now := e.clock.Now()
	role := ""
	if req.Claim {
		role = "candidate"
	} else if req.NodeID != "" {
		role = "follower"
	}
	e.view.Observe(req.NodeID, role, req.Term, req.AppliedSeq, now)

	e.mu.Lock()
	defer e.mu.Unlock()
	mySeq := e.appliedSeqLocked()
	resp := AckResponse{NodeID: e.self.ID, Term: e.maxTermSeen, AppliedSeq: mySeq}
	if req.Claim {
		return e.judgeClaimLocked(req, resp, now, mySeq)
	}
	if e.mode != ModeLeader {
		resp.Reason = "not leader"
		resp.LeaderURL = e.leaderURL
		return resp
	}
	if e.abdicated {
		resp.Reason = "abdicated: " + e.abdiReason
		return resp
	}
	if req.Term > e.term {
		// The follower adopted a real lease newer than ours: deposed.
		e.abdicateLocked(fmt.Sprintf("follower %s acks term %d > own %d", req.NodeID, req.Term, e.term))
		resp.Reason = "deposed"
		return resp
	}
	e.acks[req.NodeID] = now
	e.ackSeqs[req.NodeID] = req.AppliedSeq
	resp.Granted = true
	lease := e.leaseLocked(now)
	resp.Lease = &lease
	return resp
}

// judgeClaimLocked applies the vote rules. Caller holds e.mu.
func (e *Elector) judgeClaimLocked(req AckRequest, resp AckResponse, now time.Time, mySeq uint64) AckResponse {
	deny := func(reason string) AckResponse {
		resp.Reason = reason
		return resp
	}
	switch {
	case e.votedTerm == req.Term && e.votedFor == req.NodeID:
		// Idempotent re-grant: a lost response must not lose the vote.
		resp.Granted = true
		resp.Term = req.Term
		return resp
	case req.Term <= e.maxTermSeen:
		return deny(fmt.Sprintf("stale term %d <= %d", req.Term, e.maxTermSeen))
	case e.mode == ModeLeader && !e.abdicated && e.quorumFreshLocked(now):
		return deny("lease held")
	case e.mode != ModeLeader && now.Before(e.leaseExpiry) && req.NodeID != e.leaderID:
		return deny("observed lease still fresh")
	case req.AppliedSeq < mySeq:
		return deny(fmt.Sprintf("candidate behind: seq %d < %d", req.AppliedSeq, mySeq))
	case req.AppliedSeq == mySeq && req.NodeID > e.self.ID && e.mode != ModeLeader:
		return deny("tie broken toward smaller node id")
	}
	// Grant. Treat the candidate as leader-presumptive: repoint polls at
	// it and give it one TTL of grace to publish its lease, so a second
	// candidate can't win an overlapping election meanwhile.
	e.votedTerm = req.Term
	e.votedFor = req.NodeID
	e.maxTermSeen = req.Term
	if e.mode == ModeLeader {
		// Grantable only when not held: losing the vote IS the step-down.
		e.abdicateLocked(fmt.Sprintf("granted term %d to %s", req.Term, req.NodeID))
	} else {
		e.mode = ModeFollower
		e.leaderID = req.NodeID
		if req.URL != "" {
			e.leaderURL = req.URL
		}
		e.leaseExpiry = now.Add(e.cfg.LeaseTTL)
		e.missed = 0
		e.electionAt = time.Time{}
	}
	e.log.Info("election: granted term", "term", req.Term, "candidate", req.NodeID, "candidate_seq", req.AppliedSeq, "applied_seq", mySeq)
	resp.Granted = true
	resp.Term = req.Term
	return resp
}

// LeaseDoc answers GET /v1/lease: a leader serves its own lease (held
// or not — held only gates writes), a follower relays its last
// observation so any member can answer leader discovery. Abdicated
// ex-leaders and followers that never saw a lease answer ErrNoLease.
func (e *Elector) LeaseDoc() (Lease, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	if e.mode == ModeLeader {
		if e.abdicated {
			return Lease{}, ErrNoLease
		}
		return e.leaseLocked(now), nil
	}
	if e.leaderID == "" || e.leaderURL == "" || e.term == 0 {
		return Lease{}, ErrNoLease
	}
	return Lease{
		Term:            e.term,
		HolderID:        e.leaderID,
		HolderURL:       e.leaderURL,
		TTLSeconds:      e.cfg.LeaseTTL.Seconds(),
		RenewedUnixNano: e.lastHeard.UnixNano(),
	}, nil
}

// CheckWritable fences the leader write path: nil while the lease is
// held (or on a follower, whose writes the node role already fences),
// ErrLeaseLost on a leader whose quorum acks went stale or that
// abdicated. Evaluated live, so writes stop the instant freshness does.
func (e *Elector) CheckWritable() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mode != ModeLeader {
		return nil
	}
	if e.abdicated || !e.quorumFreshLocked(e.clock.Now()) {
		return ErrLeaseLost
	}
	return nil
}

// PromoteManual is the break-glass POST /v1/promote path routed through
// the elector: it claims the next term without votes and promotes. The
// typed ErrAlreadyLeader makes concurrent promotions idempotent — one
// winner, one monotone epoch, a typed error for the loser.
func (e *Elector) PromoteManual(ctx context.Context) (uint64, error) {
	e.mu.Lock()
	if e.mode == ModeLeader {
		e.mu.Unlock()
		return 0, repl.ErrAlreadyLeader
	}
	claim := e.maxTermSeen + 1
	e.maxTermSeen = claim
	e.mu.Unlock()
	e.log.Info("election: manual promote claiming term", "term", claim)
	return e.becomeLeader(ctx, claim, false, false)
}

// ---------------------------------------------------------------------
// Introspection

// IsLeader reports whether the elector is in leader mode.
func (e *Elector) IsLeader() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mode == ModeLeader
}

// Held reports whether this node currently holds an ackable lease: it
// is the leader, has not abdicated, and a quorum acked within one TTL.
// This is exactly the write-path fencing predicate.
func (e *Elector) Held() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mode == ModeLeader && !e.abdicated && e.quorumFreshLocked(e.clock.Now())
}

// Term returns the current lease term (leader) or the term of the last
// adopted lease (follower).
func (e *Elector) Term() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.term
}

// Elections returns how many elections this node has started.
func (e *Elector) Elections() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.elections
}

// Failovers returns how many elections this node has won (unassisted
// promotions; manual promotes are not counted).
func (e *Elector) Failovers() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failovers
}

// HeartbeatAge is the age in seconds of the last heartbeat signal: a
// follower's last successful lease poll, a leader's last step.
func (e *Elector) HeartbeatAge() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clock.Now().Sub(e.lastHeard).Seconds()
}

// Members returns the configured cluster size.
func (e *Elector) Members() int { return e.members.Size() }

// LeaderURL returns the URL of the leader as this node knows it ("" if
// unknown).
func (e *Elector) LeaderURL() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leaderURL
}

// Status renders the cluster section of /healthz.
func (e *Elector) Status() cluster.Status {
	e.mu.Lock()
	now := e.clock.Now()
	e.view.Observe(e.self.ID, e.mode.String(), e.term, e.appliedSeqLocked(), now)
	st := cluster.Status{
		Self:           e.self.ID,
		Role:           e.mode.String(),
		Term:           e.term,
		LeaderID:       e.leaderID,
		LeaderURL:      e.leaderURL,
		QuorumSize:     e.members.Quorum(),
		ElectionsTotal: e.elections,
		FailoversTotal: e.failovers,
		HeartbeatAge:   now.Sub(e.lastHeard).Seconds(),
	}
	switch e.mode {
	case ModeLeader:
		st.LeaseHeld = !e.abdicated && e.quorumFreshLocked(now)
	default:
		st.LeaseHeld = now.Before(e.leaseExpiry)
	}
	e.mu.Unlock()
	st.Members = e.view.Snapshot(e.members, now)
	return st
}

// appliedSeqLocked returns this node's replication position: a
// follower's applied sequence, a leader's committed sequence. Caller
// holds e.mu (the node has its own lock; ordering is always
// elector → node).
func (e *Elector) appliedSeqLocked() uint64 {
	if fs := e.node.FollowerStatus(); fs != nil {
		return fs.AppliedSeq
	}
	if d := e.node.Durable(); d != nil {
		return d.CommittedSeq()
	}
	return 0
}

// nodeEpochLocked reads the node's fencing epoch. Caller holds e.mu.
func (e *Elector) nodeEpochLocked() uint64 {
	return e.node.Status().Epoch
}

// FinalDrain builds a BeforePromote hook that drains f to the dead
// leader's committed watermark: sync rounds continue until the applied
// sequence reaches the manifest's committed sequence, two consecutive
// rounds make no progress, or the budget elapses. With the WAL surface
// of a wedged-but-reachable leader, this pulls every acknowledged
// insert before the successor fences it. The budget runs on c.
func FinalDrain(f *repl.Follower, c clock.Clock, budget time.Duration) func(context.Context) {
	return func(ctx context.Context) {
		ctx, cancel := clock.WithTimeout(ctx, c, budget)
		defer cancel()
		var prev uint64
		stalls := 0
		for stalls < 2 && ctx.Err() == nil {
			if err := f.SyncNow(ctx); err != nil {
				stalls++
				continue
			}
			st := f.Status()
			if st.AppliedSeq >= st.LeaderSeq {
				return
			}
			if st.AppliedSeq == prev {
				stalls++
			} else {
				stalls = 0
			}
			prev = st.AppliedSeq
		}
	}
}
