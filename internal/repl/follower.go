package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/stats"
	"mcbound/internal/wal"
)

// Follower states, as /healthz reports them: a load balancer keeps "ok"
// replicas, ejects "lagging" ones (stale model risk) and "disconnected"
// ones (leader unreachable beyond the grace window).
const (
	StateOK           = "ok"
	StateLagging      = "lagging"
	StateDisconnected = "disconnected"
)

// ErrStaleEpoch marks replication data carrying an epoch lower than one
// this follower has already seen: a deposed leader still serving. The
// data is rejected.
var ErrStaleEpoch = errors.New("repl: stale leader epoch")

// maxLag is how long a follower may run behind before /healthz turns
// "lagging".
const maxLag = 15 * time.Second

// errResync is the internal signal that the follower fell behind the
// leader's compaction horizon (or the epoch advanced) and must
// re-bootstrap from the newest snapshot.
var errResync = errors.New("repl: resync required")

// FollowerConfig wires a Follower.
type FollowerConfig struct {
	// Client talks to the leader (required).
	Client *Client
	// Apply consumes one CRC-verified record payload in log order — the
	// same callback shape as crash recovery, so replay order ≡ apply
	// order on the follower too (required).
	Apply func(payload []byte) error
	// Poll is the manifest poll cadence; <= 0 selects 250 ms. Each poll
	// is spread uniformly over Poll·(1 ± clock.DefaultJitter) so a
	// restarted fleet doesn't synchronize its fetch rounds against one
	// leader (clock.Jitter, as the retrain cron and the elector step).
	Poll time.Duration
	// Seed drives the deterministic poll jitter.
	Seed uint64
	// Clock overrides the wall clock: the status ages and, in Run, the
	// poll timer (deterministic tests).
	Clock clock.Clock
	// Logger, when set, receives replication state transitions, each
	// with the epoch it happened at.
	Logger *slog.Logger
}

// FollowerStatus is a point-in-time view of replication progress.
type FollowerStatus struct {
	State          string  `json:"state"` // ok | lagging | disconnected
	Epoch          uint64  `json:"epoch"`
	AppliedSeq     uint64  `json:"applied_seq"`
	LeaderSeq      uint64  `json:"leader_committed_seq"`
	LagRecords     uint64  `json:"lag_records"`
	LagSeconds     float64 `json:"replication_lag_seconds"`
	LastSyncAge    float64 `json:"last_sync_age_seconds"`
	AppliedRecords int64   `json:"applied_records"`
	Fetches        int64   `json:"fetches"`
	FetchErrors    int64   `json:"fetch_errors"`
	Resyncs        int64   `json:"resyncs"`
	LastError      string  `json:"last_error,omitempty"`
}

// Follower tails a leader's WAL over HTTP: it bootstraps from the
// newest snapshot, then follows sealed and active segments through the
// retry/breaker client, re-verifying every frame CRC locally and
// applying payloads in exact log order. It owns no files — a restart
// re-bootstraps from the leader — and survives leader restarts,
// compactions (re-sync from the newest snapshot) and leader changes
// (epoch bump → full re-sync; stale epochs are rejected).
type Follower struct {
	cl    *Client
	apply func([]byte) error
	poll  time.Duration
	rng   *stats.RNG // poll jitter; Run goroutine only
	// discAfter turns /healthz "disconnected" when no sync round has
	// succeeded for this long: max(4×poll, 2 s).
	discAfter time.Duration
	clock     clock.Clock
	log       *slog.Logger
	loop      *clock.Loop

	// syncMu serializes whole sync rounds: SyncNow may be called while
	// Run's loop is live, and two interleaved consume loops would apply
	// frames out of order.
	syncMu sync.Mutex

	mu           sync.Mutex
	epoch        uint64
	appliedSeq   uint64
	leaderSeq    uint64
	segSeq       uint64 // segment currently being consumed
	segOff       int64  // decoded-and-applied bytes of that segment
	buf          []byte // fetched bytes not yet forming a complete frame
	bootstrapped bool
	caughtUp     bool
	lastSync     time.Time
	lastCaughtUp time.Time
	lastErr      string
	applied      int64
	fetches      int64
	fetchErrors  int64
	resyncs      int64
}

// NewFollower builds a follower; call Run to start it.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("repl: FollowerConfig.Client is required")
	}
	if cfg.Apply == nil {
		return nil, fmt.Errorf("repl: FollowerConfig.Apply is required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	f := &Follower{
		cl:        cfg.Client,
		apply:     cfg.Apply,
		poll:      cfg.Poll,
		rng:       stats.NewRNG(cfg.Seed),
		discAfter: max(4*cfg.Poll, 2*time.Second),
		clock:     cfg.Clock,
		log:       cfg.Logger,
	}
	f.loop = clock.NewLoop(f.clock, f.nextPoll, func(ctx context.Context) { f.syncOnce(ctx) })
	start := f.clock.Now()
	f.lastSync = start
	f.lastCaughtUp = start
	return f, nil
}

// Run drives the sync loop until ctx is done or Stop is called. Each
// round drains the follower to the leader's current durable watermark,
// so after one successful round the follower is caught up as of that
// manifest.
func (f *Follower) Run(ctx context.Context) { f.loop.Run(ctx, 0) }

// nextPoll draws the next poll delay: uniform over
// poll·(1 ± clock.DefaultJitter), never below 1 ms. Only the Run goroutine calls it, so the RNG needs
// no lock.
func (f *Follower) nextPoll() time.Duration {
	return clock.Jitter(f.poll, clock.DefaultJitter, f.rng.Float64())
}

// Stop halts the sync loop, cutting an in-flight fetch short, and waits
// for it to exit (promotion seals the applied stream before the store
// changes owners). Safe to call more than once, and a no-wait no-op
// when Run was never started (a follower driven purely by SyncNow).
func (f *Follower) Stop() { f.loop.Stop() }

// SyncNow runs one synchronous sync round (tests and the bench harness;
// the background loop uses the same body).
func (f *Follower) SyncNow(ctx context.Context) error { return f.syncOnce(ctx) }

func (f *Follower) syncOnce(ctx context.Context) error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	m, err := f.cl.Manifest(ctx)
	if err != nil {
		return f.noteError(err)
	}
	f.mu.Lock()
	known := f.epoch
	f.mu.Unlock()
	if m.Epoch < known {
		return f.noteError(fmt.Errorf("%w: manifest epoch %d < %d", ErrStaleEpoch, m.Epoch, known))
	}
	if m.Epoch > known {
		f.mu.Lock()
		wasBootstrapped := f.bootstrapped
		f.epoch = m.Epoch
		f.bootstrapped = false
		f.mu.Unlock()
		if wasBootstrapped {
			f.log.Info("repl: leader epoch changed, re-syncing", "from_epoch", known, "epoch", m.Epoch)
		}
	}
	f.mu.Lock()
	bootstrapped := f.bootstrapped
	f.mu.Unlock()
	if !bootstrapped {
		if err := f.bootstrap(ctx, m); err != nil {
			return f.handleSyncErr(err)
		}
	}
	if err := f.consume(ctx, m); err != nil {
		return f.handleSyncErr(err)
	}
	f.noteSuccess(m)
	return nil
}

// handleSyncErr routes a round's failure: a resync signal schedules a
// fresh bootstrap on the next round (not an error — compaction outran
// us, or leadership changed), everything else is recorded.
func (f *Follower) handleSyncErr(err error) error {
	if errors.Is(err, errResync) {
		f.mu.Lock()
		if f.bootstrapped {
			f.bootstrapped = false
			f.resyncs++
		}
		epoch := f.epoch
		f.mu.Unlock()
		f.log.Info("repl: position invalidated, re-syncing from snapshot", "epoch", epoch)
		return nil
	}
	return f.noteError(err)
}

// bootstrap positions the follower from manifest m: apply the newest
// snapshot (when one exists) and start consuming segments at its
// coverage point. Re-bootstrapping over existing state is safe because
// apply is last-writer-wins in log order.
func (f *Follower) bootstrap(ctx context.Context, m wal.Manifest) error {
	var snapName string
	var snapSeq uint64
	var snapSize int64
	for _, s := range m.Snapshots {
		if seq, ok := parseName(s.Name, "snap-", ".snap"); ok && seq > snapSeq {
			snapName, snapSeq, snapSize = s.Name, seq, s.Size
		}
	}
	if snapName == "" {
		// No snapshot yet: history starts at record zero, first segment.
		first := uint64(0)
		for _, s := range m.Segments {
			if seq, ok := parseName(s.Name, "wal-", ".seg"); ok && (first == 0 || seq < first) {
				first = seq
			}
		}
		f.mu.Lock()
		f.segSeq = first
		f.segOff = 0
		f.buf = nil
		f.appliedSeq = 0
		f.bootstrapped = true
		f.mu.Unlock()
		return nil
	}
	data := make([]byte, 0, snapSize)
	for int64(len(data)) < snapSize {
		chunk, epoch, err := f.cl.Chunk(ctx, snapName, int64(len(data)), wal.MaxChunkBytes)
		f.countFetch(err)
		if err != nil {
			if errors.Is(err, ErrGone) {
				return errResync // compacted mid-bootstrap; pick a newer one
			}
			return err
		}
		if err := f.checkEpoch(epoch); err != nil {
			return err
		}
		if len(chunk) == 0 {
			return fmt.Errorf("repl: snapshot %s truncated at %d/%d bytes", snapName, len(data), snapSize)
		}
		data = append(data, chunk...)
	}
	base, records, err := wal.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("repl: snapshot %s: %w", snapName, err)
	}
	for _, p := range records {
		if err := f.apply(p); err != nil {
			return fmt.Errorf("repl: apply snapshot record: %w", err)
		}
		f.mu.Lock()
		f.applied++
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.segSeq = snapSeq
	f.segOff = 0
	f.buf = nil
	f.appliedSeq = base
	f.bootstrapped = true
	f.mu.Unlock()
	f.log.Info("repl: bootstrapped", "snapshot", snapName, "records", len(records), "base_seq", base, "epoch", m.Epoch)
	return nil
}

// consume drains segment bytes up to the manifest's durable watermarks,
// decoding and applying complete frames in order.
func (f *Follower) consume(ctx context.Context, m wal.Manifest) error {
	for {
		f.mu.Lock()
		seq, off, buffered := f.segSeq, f.segOff, int64(len(f.buf))
		f.mu.Unlock()

		ent, ok := findSegment(m, seq)
		if !ok {
			if newestSnapshotSeq(m) > seq {
				// Our position was compacted away while we were behind.
				return errResync
			}
			// Sequence-number gap (snapshots consume numbers too): hop to
			// the next segment that actually exists.
			next, nok := nextSegment(m, seq)
			if !nok {
				return nil // nothing newer; caught up with this manifest
			}
			f.setPosition(next, 0)
			continue
		}
		avail := ent.Size
		pos := off + buffered
		if pos < avail {
			want := avail - pos
			if want > wal.MaxChunkBytes {
				want = wal.MaxChunkBytes
			}
			chunk, epoch, err := f.cl.Chunk(ctx, ent.Name, pos, want)
			f.countFetch(err)
			if err != nil {
				if errors.Is(err, ErrGone) {
					return errResync
				}
				return err
			}
			if err := f.checkEpoch(epoch); err != nil {
				return err
			}
			if len(chunk) == 0 {
				// The file is shorter than the manifest promised (leader
				// restarted between manifest and fetch); re-poll.
				return nil
			}
			if err := f.decodeAndApply(ent.Name, chunk); err != nil {
				return err
			}
			continue
		}
		if ent.Sealed {
			if buffered > 0 {
				f.mu.Lock()
				f.buf = nil
				f.mu.Unlock()
				return fmt.Errorf("repl: partial frame at end of sealed segment %s", ent.Name)
			}
			next, nok := nextSegment(m, seq)
			if !nok {
				return nil
			}
			f.setPosition(next, 0)
			continue
		}
		return nil // active segment consumed to the durable watermark
	}
}

// decodeAndApply appends chunk to the carry buffer and applies every
// complete frame, re-verifying CRCs exactly like crash recovery does. A
// trailing partial frame stays buffered for the next chunk.
func (f *Follower) decodeAndApply(name string, chunk []byte) error {
	f.mu.Lock()
	buf := append(f.buf, chunk...)
	f.mu.Unlock()
	for len(buf) > 0 {
		payload, rest, err := wal.DecodeFrame(buf)
		if err != nil {
			if errors.Is(err, wal.ErrTruncatedFrame) {
				break
			}
			// A corrupt frame inside the durable watermark should be
			// impossible; drop the carry buffer so the next round
			// re-fetches the region instead of looping on bad bytes.
			f.mu.Lock()
			f.buf = nil
			f.mu.Unlock()
			return fmt.Errorf("repl: corrupt frame in %s: %w", name, err)
		}
		if aerr := f.apply(payload); aerr != nil {
			f.mu.Lock()
			f.buf = nil
			f.mu.Unlock()
			return fmt.Errorf("repl: apply record: %w", aerr)
		}
		consumed := int64(len(buf) - len(rest))
		buf = rest
		f.mu.Lock()
		f.segOff += consumed
		f.appliedSeq++
		f.applied++
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.buf = append([]byte(nil), buf...)
	f.mu.Unlock()
	return nil
}

func (f *Follower) setPosition(seq uint64, off int64) {
	f.mu.Lock()
	f.segSeq = seq
	f.segOff = off
	f.buf = nil
	f.mu.Unlock()
}

// checkEpoch rejects data stamped with an epoch below the highest this
// follower has seen, and forces a re-sync when the epoch advanced
// mid-round.
func (f *Follower) checkEpoch(epoch uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch < f.epoch {
		return fmt.Errorf("%w: chunk epoch %d < %d", ErrStaleEpoch, epoch, f.epoch)
	}
	if epoch > f.epoch {
		f.epoch = epoch
		f.bootstrapped = false
		f.resyncs++
		return errResync
	}
	return nil
}

func (f *Follower) countFetch(err error) {
	f.mu.Lock()
	f.fetches++
	if err != nil {
		f.fetchErrors++
	}
	f.mu.Unlock()
}

func (f *Follower) noteError(err error) error {
	if errors.Is(err, context.Canceled) {
		return err
	}
	f.mu.Lock()
	f.lastErr = err.Error()
	epoch := f.epoch
	f.mu.Unlock()
	f.log.Warn("repl: sync failed", "err", err, "epoch", epoch)
	return err
}

func (f *Follower) noteSuccess(m wal.Manifest) {
	now := f.clock.Now()
	f.mu.Lock()
	f.leaderSeq = m.CommittedSeq
	f.lastSync = now
	f.caughtUp = f.appliedSeq >= m.CommittedSeq
	if f.caughtUp {
		f.lastCaughtUp = now
	}
	f.lastErr = ""
	f.mu.Unlock()
}

// Status reports replication progress and the three-way health state.
func (f *Follower) Status() FollowerStatus {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{
		Epoch:          f.epoch,
		AppliedSeq:     f.appliedSeq,
		LeaderSeq:      f.leaderSeq,
		LastSyncAge:    now.Sub(f.lastSync).Seconds(),
		AppliedRecords: f.applied,
		Fetches:        f.fetches,
		FetchErrors:    f.fetchErrors,
		Resyncs:        f.resyncs,
		LastError:      f.lastErr,
	}
	if f.leaderSeq > f.appliedSeq {
		st.LagRecords = f.leaderSeq - f.appliedSeq
	}
	if !f.caughtUp {
		st.LagSeconds = now.Sub(f.lastCaughtUp).Seconds()
	}
	switch {
	case now.Sub(f.lastSync) > f.discAfter:
		st.State = StateDisconnected
	case !f.caughtUp && now.Sub(f.lastCaughtUp) > maxLag:
		st.State = StateLagging
	default:
		st.State = StateOK
	}
	return st
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%x", &seq)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

func findSegment(m wal.Manifest, seq uint64) (wal.ManifestFile, bool) {
	for _, s := range m.Segments {
		if got, ok := parseName(s.Name, "wal-", ".seg"); ok && got == seq {
			return s, true
		}
	}
	return wal.ManifestFile{}, false
}

func nextSegment(m wal.Manifest, seq uint64) (uint64, bool) {
	var best uint64
	for _, s := range m.Segments {
		if got, ok := parseName(s.Name, "wal-", ".seg"); ok && got > seq && (best == 0 || got < best) {
			best = got
		}
	}
	return best, best != 0
}

func newestSnapshotSeq(m wal.Manifest) uint64 {
	var best uint64
	for _, s := range m.Snapshots {
		if got, ok := parseName(s.Name, "snap-", ".snap"); ok && got > best {
			best = got
		}
	}
	return best
}
