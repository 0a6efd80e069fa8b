package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/wal"
)

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// SegmentBytes, Policy and FS pass through to the WAL (see
	// wal.Options).
	SegmentBytes int64
	Policy       wal.Policy
	FS           wal.FS
	// AppendObserver, when set, receives the latency of every Insert in
	// seconds (reserve to durability point).
	AppendObserver func(seconds float64)
	// SnapshotEvery triggers a background snapshot+compaction after this
	// many records were logged since the last one; <= 0 disables
	// automatic snapshots (Snapshot can still be called explicitly).
	SnapshotEvery int
	// BumpEpoch durably increments the replication fencing epoch before
	// the log accepts writes (the -promote-on-start escape hatch).
	BumpEpoch bool
}

// walOptions is the part of o the log itself takes.
func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{
		SegmentBytes: o.SegmentBytes, Policy: o.Policy, FS: o.FS, BumpEpoch: o.BumpEpoch,
	}
}

// Durable wraps a Store with a write-ahead log: Insert returns only
// after the records reached the configured durability point, and
// OpenDurable rebuilds the exact acknowledged state from the latest
// snapshot plus the log tail. Reads go straight to Store — the WAL sits
// on the write path only.
type Durable struct {
	s   *Store
	wal *wal.WAL

	// mu serializes "reserve log position + apply to memory" so replay
	// order is identical to apply order. Commit (the fsync wait) happens
	// outside it, so concurrent inserts still group-commit.
	mu sync.Mutex

	observer  func(float64)
	snapEvery int
	sinceSnap atomic.Int64
	snapping  atomic.Bool
	wg        sync.WaitGroup

	recovery    wal.Recovery
	lastSnapErr atomic.Value // string
}

// ApplyRecord decodes one logged record payload and inserts it: the one
// apply step of crash recovery and of a follower's replication stream,
// so replay order ≡ apply order on both.
func (s *Store) ApplyRecord(payload []byte) error {
	var j job.Job
	if err := job.Unmarshal(payload, &j); err != nil {
		return fmt.Errorf("store: replay record: %w", err)
	}
	return s.Insert(&j)
}

// OpenDurable replays the durable state under dir into a fresh Store
// and returns the write-through handle. When the directory holds no
// state yet and seed is non-empty, the seed becomes the initial
// snapshot (so a trace-loaded store survives the first crash too).
// A recovery that quarantined a corrupt segment still opens — the
// caller can inspect Recovery().Failure and serve degraded.
func OpenDurable(dir string, seed *Store, opts DurableOptions) (*Durable, error) {
	s := New()
	w, rec, err := wal.Open(dir, opts.walOptions(), s.ApplyRecord)
	if err != nil {
		return nil, err
	}
	d := &Durable{
		s:         s,
		wal:       w,
		observer:  opts.AppendObserver,
		snapEvery: opts.SnapshotEvery,
		recovery:  rec,
	}
	d.lastSnapErr.Store("")
	if rec.SnapshotRecords == 0 && rec.SegmentRecords == 0 && seed != nil && seed.Len() > 0 {
		if err := s.Insert(seed.All()...); err != nil {
			w.Close()
			return nil, err
		}
		if err := d.Snapshot(); err != nil {
			w.Close()
			return nil, fmt.Errorf("store: seed snapshot: %w", err)
		}
	}
	return d, nil
}

// Store exposes the in-memory repository for the read paths (queries
// never touch the log).
func (d *Durable) Store() *Store { return d.s }

// WAL exposes the underlying log — the replication source serves its
// manifest and file chunks from it.
func (d *Durable) WAL() *wal.WAL { return d.wal }

// CommittedSeq is the durable record sequence of the log (see
// wal.CommittedSeq).
func (d *Durable) CommittedSeq() uint64 { return d.wal.CommittedSeq() }

// Insert logs the jobs, applies them to memory, and returns once the
// batch reached the durability point of the configured fsync policy.
// On a log error nothing is applied and nothing may be acknowledged.
func (d *Durable) Insert(jobs ...*job.Job) error {
	if len(jobs) == 0 {
		return nil
	}
	// The batch encodes into one buffer, and each payload is its slice.
	var buf []byte
	ends := make([]int, len(jobs))
	for i, j := range jobs {
		if j.ID == "" {
			return fmt.Errorf("store: job with empty id")
		}
		var err error
		if buf, err = job.AppendJSON(buf, j); err != nil {
			return fmt.Errorf("store: encode job %s: %w", j.ID, err)
		}
		ends[i] = len(buf)
	}
	payloads := make([][]byte, len(jobs))
	for i, start := 0, 0; i < len(jobs); start, i = ends[i], i+1 {
		payloads[i] = buf[start:ends[i]]
	}
	t0 := time.Now()
	d.mu.Lock()
	lsn, err := d.wal.Reserve(payloads)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.s.Insert(jobs...); err != nil {
		// Unreachable after the validation above, but never leave the
		// log and memory disagreeing silently.
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()
	if err := d.wal.Commit(lsn); err != nil {
		return err
	}
	if d.observer != nil {
		d.observer(time.Since(t0).Seconds())
	}
	if d.snapEvery > 0 && d.sinceSnap.Add(int64(len(jobs))) >= int64(d.snapEvery) {
		d.snapshotAsync()
	}
	return nil
}

// snapshotAsync starts a single-flight background snapshot; a failure
// is recorded for Health and retried by the next countdown expiry.
func (d *Durable) snapshotAsync() {
	if !d.snapping.CompareAndSwap(false, true) {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.snapping.Store(false)
		if err := d.Snapshot(); err != nil {
			d.lastSnapErr.Store(err.Error())
		} else {
			d.lastSnapErr.Store("")
		}
	}()
}

// Snapshot captures the current state, publishes it atomically and
// compacts the log. The state dump and the coverage point are taken
// under the apply lock, so no record can fall between them.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	jobs := d.s.All()
	cover, base, err := d.wal.BeginSnapshot()
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.sinceSnap.Store(0)
	d.mu.Unlock()
	return d.wal.CompleteSnapshot(cover, base, func(emit func([]byte) error) error {
		var b []byte // emit keeps nothing: one buffer serves every record
		for _, j := range jobs {
			var err error
			if b, err = job.AppendJSON(b[:0], j); err != nil {
				return fmt.Errorf("store: encode job %s: %w", j.ID, err)
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	})
}

// AttachDurable wires an already-materialized store over dir: the log is
// opened read-write discarding its replayed records (st is expected to
// already contain them, plus whatever replicated tail arrived beyond the
// local disk state), the sequence base is raised to baseSeq, and an
// immediate snapshot publishes st so the directory converges to the
// in-memory state. The promotion path uses it to turn a follower's store
// into a durable leader store after WriteEpoch fenced the old leader.
func AttachDurable(dir string, st *Store, baseSeq uint64, opts DurableOptions) (*Durable, error) {
	w, rec, err := wal.Open(dir, opts.walOptions(), nil)
	if err != nil {
		return nil, err
	}
	w.SetBaseSeq(baseSeq)
	d := &Durable{
		s:         st,
		wal:       w,
		observer:  opts.AppendObserver,
		snapEvery: opts.SnapshotEvery,
		recovery:  rec,
	}
	d.lastSnapErr.Store("")
	if err := d.Snapshot(); err != nil {
		w.Close()
		return nil, fmt.Errorf("store: attach snapshot: %w", err)
	}
	return d, nil
}

// Close waits for any background snapshot and closes the log, flushing
// pending records durably.
func (d *Durable) Close() error {
	d.wg.Wait()
	return d.wal.Close()
}

// Recovery returns what the boot-time replay found.
func (d *Durable) Recovery() wal.Recovery { return d.recovery }

// Stats returns the log's operational counters.
func (d *Durable) Stats() wal.Stats { return d.wal.Stats() }

// DurabilityHealth is the /healthz durability section.
type DurabilityHealth struct {
	Policy              string  `json:"fsync_policy"`
	LastFsyncAgeSeconds float64 `json:"last_fsync_age_seconds"` // -1 before the first fsync
	Segments            int64   `json:"segments"`
	Appends             int64   `json:"appends"`
	RecoveryOutcome     string  `json:"last_boot_recovery"`
	RecoveredRecords    int     `json:"recovered_records"`
	TornTailTruncations int     `json:"torn_tail_truncations"`
	LastSnapshotError   string  `json:"last_snapshot_error,omitempty"`
}

// Health summarizes the durability posture for /healthz.
func (d *Durable) Health() DurabilityHealth {
	st := d.wal.Stats()
	age := -1.0
	if !st.LastFsync.IsZero() {
		age = time.Since(st.LastFsync).Seconds()
	}
	errStr, _ := d.lastSnapErr.Load().(string)
	return DurabilityHealth{
		Policy:              st.Policy.String(),
		LastFsyncAgeSeconds: age,
		Segments:            st.Segments,
		Appends:             st.Appends,
		RecoveryOutcome:     d.recovery.Outcome(),
		RecoveredRecords:    d.recovery.SnapshotRecords + d.recovery.SegmentRecords,
		TornTailTruncations: d.recovery.TornTailTruncations,
		LastSnapshotError:   errStr,
	}
}
