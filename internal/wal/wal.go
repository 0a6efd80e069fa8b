package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when an append is acknowledged durable.
type Policy int

const (
	// FsyncAlways fsyncs before every acknowledgment: an acked record
	// survives any crash. Concurrent appenders share fsyncs through
	// group commit.
	FsyncAlways Policy = iota
	// FsyncNever acknowledges on write and leaves fsync to segment
	// rotation and Close: fastest, weakest (a crash loses the tail of
	// the current segment).
	FsyncNever
)

// String renders the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy converts the -fsync flag spelling into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
}

// DefaultSegmentBytes is the rotation size a zero Options.SegmentBytes
// selects.
const DefaultSegmentBytes = 4 << 20

// Options configure Open.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size; <= 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// Policy is the durability point of Append; the zero value is
	// FsyncAlways (safe by default).
	Policy Policy
	// FS substitutes the filesystem (fault injection); nil selects OS.
	FS FS
	// AppendObserver, when set, receives the latency of every
	// AppendBatch in seconds (reserve to durability point).
	AppendObserver func(seconds float64)
	// ReadOnly opens the log for inspection and replay only: recovery
	// never deletes, truncates, renames or creates anything, and every
	// mutating method returns ErrReadOnly. Followers and operator tools
	// use it so they cannot mutate state they do not own.
	ReadOnly bool
	// BumpEpoch durably increments the fencing epoch before the log
	// accepts appends — the promotion path uses it so segments written by
	// a deposed leader are rejected by followers of the new one.
	BumpEpoch bool
}

// ErrCorruptSegment is wrapped by Recovery.Failure when a bad frame sits
// in the middle of the log — not at the tail, where a torn write is the
// innocent explanation. The offending segment is quarantined (renamed
// *.corrupt) and replay stops at the last good record before it, so the
// recovered state is always a clean prefix.
var ErrCorruptSegment = errors.New("wal: corrupt segment")

// ErrClosed is returned by appends against a closed or failed WAL.
var ErrClosed = errors.New("wal: closed")

// ErrReadOnly is returned by mutating methods of a read-only WAL.
var ErrReadOnly = errors.New("wal: read-only")

// Recovery describes what Open rebuilt from disk.
type Recovery struct {
	// SnapshotSeq is the sequence of the snapshot that seeded replay; 0
	// when recovery started from an empty state.
	SnapshotSeq uint64
	// SnapshotRecords and SegmentRecords count the records delivered to
	// the apply callback from the snapshot and the segments.
	SnapshotRecords int
	SegmentRecords  int
	// SnapshotBase is the record sequence the snapshot covered — the
	// count of log records ever appended below it, which differs from
	// SnapshotRecords once updates overwrite earlier records. Replication
	// lag accounting resumes from SnapshotBase + SegmentRecords.
	SnapshotBase uint64
	// TornTailTruncations counts bad frames found at the writable tail
	// and cut off (the expected shape after a crash mid-write).
	TornTailTruncations int
	// QuarantinedSnapshots and QuarantinedSegments list files renamed to
	// *.corrupt because their content did not verify.
	QuarantinedSnapshots []string
	QuarantinedSegments  []string
	// Failure carries ErrCorruptSegment when a mid-log segment was
	// quarantined: the recovered store is a valid prefix, but records
	// after the corruption were not replayed.
	Failure error
}

// Outcome is the one-word health summary of the last boot.
func (r Recovery) Outcome() string {
	switch {
	case r.Failure != nil:
		return "quarantined_segment"
	case len(r.QuarantinedSnapshots) > 0:
		return "quarantined_snapshot"
	case r.TornTailTruncations > 0:
		return "torn_tail_truncated"
	}
	return "clean"
}

// Stats is a point-in-time snapshot of the WAL's operational counters.
type Stats struct {
	Appends             int64 // records acknowledged
	AppendedBytes       int64 // framed bytes written
	Fsyncs              int64 // fsync calls on segment files
	Rotations           int64 // segment rotations since open
	Segments            int64 // live segment files including the active one
	RecoveredRecords    int64 // records replayed by the last Open
	TornTailTruncations int64 // torn tails cut by the last Open
	LastFsync           time.Time
	Policy              Policy
}

// WAL is a segmented write-ahead log. All methods are safe for
// concurrent use. After any I/O error the WAL goes sticky-failed: every
// subsequent append returns the original error, so a caller can never
// acknowledge a record the log could not durably hold.
type WAL struct {
	dir      string
	fs       FS
	segLimit int64
	policy   Policy
	observer func(float64)
	readOnly bool

	mu           sync.Mutex
	cond         *sync.Cond
	seg          File
	segName      string
	segSeq       uint64
	segSize      int64
	durableBytes int64 // fsynced prefix of the active segment (replication watermark)
	pending      []byte
	nextLSN      uint64 // records reserved
	written      uint64 // records written to the segment file
	durable      uint64 // records covered by an fsync
	recoveredSeq uint64 // record sequence the last Open recovered up to
	epoch        uint64 // fencing epoch, durable in the epoch file
	flushing     bool
	closed       bool
	sticky       error

	appends      atomic.Int64
	bytes        atomic.Int64
	fsyncs       atomic.Int64
	rotations    atomic.Int64
	segments     atomic.Int64
	lastFsyncNs  atomic.Int64
	lastRecovery Recovery
}

// Snapshot file framing: a magic header frame, an optional base frame
// carrying the covered record sequence, one frame per record, and a seal
// frame carrying the record count. The seal makes partial content
// detectable even though the rename publishing the file is atomic — bit
// rot or a tampered file fails either a frame CRC or the seal check and
// the loader falls back to the previous snapshot.
const (
	snapshotMagic = "mcbound-snapshot-v1"
	basePrefix    = "base:"
	sealPrefix    = "end:"
)

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016x.seg", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// Open recovers the log under dir and returns a WAL ready for appends.
// apply is invoked once per recovered record — snapshot records first,
// then surviving WAL records in append order — before Open returns; the
// caller rebuilds its in-memory state inside it. A nil apply discards
// the records (useful for inspection tools).
//
// Recovery tolerates crashes at any point of the append and snapshot
// protocols: *.tmp leftovers are deleted, a torn tail on the newest data
// is truncated, unreadable snapshots are quarantined in favor of older
// ones, and segments made obsolete by a published snapshot are removed
// (finishing an interrupted compaction). Only mid-log corruption — a bad
// frame with good data after it — surfaces in Recovery.Failure, because
// it means real data loss rather than an interrupted write.
func Open(dir string, opts Options, apply func(payload []byte) error) (*WAL, Recovery, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if apply == nil {
		apply = func([]byte) error { return nil }
	}
	if opts.ReadOnly && opts.BumpEpoch {
		return nil, Recovery{}, fmt.Errorf("wal: BumpEpoch requires a writable log")
	}
	if !opts.ReadOnly {
		// A read-only open must not mutate anything, directory creation
		// included: opening a missing dir read-only fails in recovery.
		if err := fsys.MkdirAll(dir); err != nil {
			return nil, Recovery{}, fmt.Errorf("wal: mkdir %s: %w", dir, err)
		}
	}

	w := &WAL{
		dir:      dir,
		fs:       fsys,
		segLimit: opts.SegmentBytes,
		policy:   opts.Policy,
		observer: opts.AppendObserver,
		readOnly: opts.ReadOnly,
	}
	w.cond = sync.NewCond(&w.mu)

	stored, err := ReadEpoch(fsys, dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: read epoch: %w", err)
	}
	w.epoch = stored
	if w.epoch == 0 {
		w.epoch = 1
	}
	if opts.BumpEpoch {
		w.epoch++
	}
	if !opts.ReadOnly && w.epoch != stored {
		if err := WriteEpoch(fsys, dir, w.epoch); err != nil {
			return nil, Recovery{}, fmt.Errorf("wal: write epoch: %w", err)
		}
	}

	rec, maxSeq, liveSegs, err := w.recover(apply)
	if err != nil {
		return nil, rec, err
	}
	w.lastRecovery = rec
	w.recoveredSeq = rec.SnapshotBase + uint64(rec.SegmentRecords)

	if opts.ReadOnly {
		// No active segment: the log stays exactly as found on disk.
		w.segSeq = maxSeq
		w.segments.Store(int64(liveSegs))
		return w, rec, nil
	}

	// Appends always start a fresh segment: recovered segments are never
	// reopened for writing, so a truncated tail can never be overwritten
	// with frames that straddle the old torn region.
	w.segSeq = maxSeq + 1
	w.segName = filepath.Join(dir, segmentName(w.segSeq))
	seg, err := fsys.Create(w.segName)
	if err != nil {
		return nil, rec, fmt.Errorf("wal: create segment: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		seg.Close()
		return nil, rec, fmt.Errorf("wal: fsync dir: %w", err)
	}
	w.seg = seg
	w.segments.Store(int64(liveSegs + 1))
	return w, rec, nil
}

// recover scans dir and replays snapshot + segments through apply.
// It returns the recovery report, the highest sequence number in use by
// any file (so the caller can pick a fresh one), and the number of
// segment files left alive.
func (w *WAL) recover(apply func([]byte) error) (Recovery, uint64, int, error) {
	var rec Recovery
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return rec, 0, 0, fmt.Errorf("wal: readdir %s: %w", w.dir, err)
	}

	var maxSeq uint64
	segs := make(map[uint64]string)
	var segSeqs []uint64
	var snapSeqs []uint64
	for _, name := range names {
		full := filepath.Join(w.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			// Interrupted atomic write; the target was never published.
			if !w.readOnly {
				w.fs.Remove(full)
			}
			continue
		}
		if seq, ok := parseSeq(name, "wal-", ".seg"); ok {
			segs[seq] = full
			segSeqs = append(segSeqs, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
	}
	sortSeqs(segSeqs)
	sortSeqs(snapSeqs)

	// Newest loadable snapshot wins; broken ones are quarantined so the
	// next boot does not stumble over them again (in read-only mode they
	// are reported but left untouched on disk).
	var snapRecords [][]byte
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		seq := snapSeqs[i]
		path := filepath.Join(w.dir, snapshotName(seq))
		base, records, err := w.loadSnapshot(path)
		if err != nil {
			if !w.readOnly {
				w.fs.Rename(path, path+".corrupt")
			}
			rec.QuarantinedSnapshots = append(rec.QuarantinedSnapshots, snapshotName(seq))
			continue
		}
		rec.SnapshotSeq = seq
		rec.SnapshotBase = base
		snapRecords = records
		break
	}
	for _, p := range snapRecords {
		if err := apply(p); err != nil {
			return rec, 0, 0, fmt.Errorf("wal: apply snapshot record: %w", err)
		}
		rec.SnapshotRecords++
	}

	// Segments below the chosen snapshot are fully covered by it; delete
	// them (a crash between snapshot publish and compaction leaves them
	// behind). The rest replays in order.
	live := 0
	for idx, seq := range segSeqs {
		path := segs[seq]
		if seq < rec.SnapshotSeq {
			if !w.readOnly {
				w.fs.Remove(path)
			}
			continue
		}
		if rec.Failure != nil {
			// Everything past a quarantined segment is unreachable for
			// replay (the prefix contract) but is left on disk for the
			// operator.
			live++
			continue
		}
		data, err := readFile(w.fs, path)
		if err != nil {
			return rec, 0, 0, fmt.Errorf("wal: read segment %s: %w", path, err)
		}
		n, off, derr := w.replaySegment(data, apply)
		rec.SegmentRecords += n
		if derr == nil {
			live++
			continue
		}
		if idx == len(segSeqs)-1 {
			// Bad frame at the very tail of the newest segment: the
			// classic torn write. Cut it off and carry on — unless the log
			// is read-only, where the torn bytes stay on disk for the
			// owner to repair and replay simply stops before them.
			if !w.readOnly {
				if terr := w.fs.Truncate(path, int64(off)); terr != nil {
					return rec, 0, 0, fmt.Errorf("wal: truncate torn tail of %s: %w", path, terr)
				}
			}
			rec.TornTailTruncations++
			live++
			continue
		}
		if !w.readOnly {
			w.fs.Rename(path, path+".corrupt")
		}
		rec.QuarantinedSegments = append(rec.QuarantinedSegments, filepath.Base(path))
		rec.Failure = fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptSegment, filepath.Base(path), off, derr)
	}
	return rec, maxSeq, live, nil
}

// replaySegment decodes frames from data, applying each payload, and
// returns the number of applied records plus the byte offset of the
// first bad frame (len(data) when the segment is clean).
func (w *WAL) replaySegment(data []byte, apply func([]byte) error) (records, offset int, err error) {
	rest := data
	for len(rest) > 0 {
		payload, r, derr := DecodeFrame(rest)
		if derr != nil {
			return records, len(data) - len(rest), derr
		}
		if aerr := apply(payload); aerr != nil {
			// A CRC-valid frame the application rejects is corruption as
			// far as recovery is concerned: stop at the last good record.
			return records, len(data) - len(rest), aerr
		}
		records++
		rest = r
	}
	return records, len(data), nil
}

// loadSnapshot validates the whole snapshot file before returning its
// base sequence and record payloads.
func (w *WAL) loadSnapshot(path string) (uint64, [][]byte, error) {
	data, err := readFile(w.fs, path)
	if err != nil {
		return 0, nil, err
	}
	return DecodeSnapshot(data)
}

// DecodeSnapshot validates a snapshot image — magic first frame,
// per-frame CRCs, and a seal frame with a matching record count — and
// returns its base sequence plus the record payloads. The base is the
// count of log records the snapshot covers; snapshots written before the
// base frame existed fall back to the record count, which matches for
// insert-only histories. Any validation failure invalidates the file.
func DecodeSnapshot(data []byte) (base uint64, records [][]byte, err error) {
	payload, rest, err := DecodeFrame(data)
	if err != nil {
		return 0, nil, err
	}
	if string(payload) != snapshotMagic {
		return 0, nil, fmt.Errorf("wal: bad snapshot magic %q", payload)
	}
	haveBase := false
	for {
		payload, rest, err = DecodeFrame(rest)
		if err != nil {
			return 0, nil, err
		}
		if !haveBase && len(records) == 0 && strings.HasPrefix(string(payload), basePrefix) {
			b, perr := strconv.ParseUint(strings.TrimPrefix(string(payload), basePrefix), 10, 64)
			if perr != nil {
				return 0, nil, fmt.Errorf("wal: bad snapshot base %q", payload)
			}
			base = b
			haveBase = true
			continue
		}
		if strings.HasPrefix(string(payload), sealPrefix) {
			n, perr := strconv.Atoi(strings.TrimPrefix(string(payload), sealPrefix))
			if perr != nil || n != len(records) {
				return 0, nil, fmt.Errorf("wal: snapshot seal %q does not match %d records", payload, len(records))
			}
			if len(rest) != 0 {
				return 0, nil, fmt.Errorf("wal: %d trailing bytes after snapshot seal", len(rest))
			}
			if !haveBase {
				base = uint64(len(records))
			}
			return base, records, nil
		}
		records = append(records, payload)
	}
}

func sortSeqs(seqs []uint64) {
	for i := 1; i < len(seqs); i++ {
		for k := i; k > 0 && seqs[k] < seqs[k-1]; k-- {
			seqs[k], seqs[k-1] = seqs[k-1], seqs[k]
		}
	}
}

// Append logs one record and returns once it reached the policy's
// durability point.
func (w *WAL) Append(payload []byte) error {
	return w.AppendBatch([][]byte{payload})
}

// AppendBatch logs the records as one commit unit: a single write and —
// under FsyncAlways — a single fsync cover the whole batch, and
// concurrent batches group-commit (the first waiter flushes everyone's
// pending frames; the rest ride along on its fsync).
func (w *WAL) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	t0 := time.Now()
	lsn, err := w.Reserve(payloads)
	if err != nil {
		return err
	}
	err = w.Commit(lsn)
	if w.observer != nil {
		w.observer(time.Since(t0).Seconds())
	}
	return err
}

// Reserve buffers the records and assigns their position in the log
// order without waiting for durability. It exists so a caller can
// serialize "assign log order + apply to memory" under its own lock and
// then Commit outside it, keeping replay order identical to apply order
// while still sharing fsyncs across goroutines.
func (w *WAL) Reserve(payloads [][]byte) (lsn uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.readOnly {
		return 0, ErrReadOnly
	}
	if w.closed {
		return 0, ErrClosed
	}
	if w.sticky != nil {
		return 0, w.sticky
	}
	for _, p := range payloads {
		if len(p) > MaxFramePayload {
			return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(p))
		}
		w.pending = AppendFrame(w.pending, p)
		w.nextLSN++
	}
	return w.nextLSN, nil
}

// Commit blocks until every record up to lsn reached the durability
// point of the configured policy (written for never, fsynced for
// always), flushing as the group-commit leader when no one else is.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.sticky != nil {
			return w.sticky
		}
		reached := w.written
		if w.policy == FsyncAlways {
			reached = w.durable
		}
		if reached >= lsn {
			w.appendsCommitted(lsn)
			return nil
		}
		if w.closed {
			return ErrClosed
		}
		if !w.flushing {
			w.flushLocked(w.policy == FsyncAlways)
			continue
		}
		w.cond.Wait()
	}
}

// appendsCommitted accounts acknowledged records exactly once per LSN.
func (w *WAL) appendsCommitted(lsn uint64) {
	if c := w.appends.Load(); int64(lsn) > c {
		w.appends.Store(int64(lsn))
	}
}

// flushLocked is the group-commit leader step: it takes the pending
// buffer, releases the lock for the I/O (write, optional rotation,
// optional fsync), then reacquires it to publish progress and wake the
// riders. Callers must hold w.mu with w.flushing == false.
func (w *WAL) flushLocked(sync bool) {
	w.flushing = true
	batch := w.pending
	w.pending = nil
	batchEnd := w.nextLSN
	w.mu.Unlock()

	var err error
	if w.segSize >= w.segLimit && w.segSize > 0 {
		err = w.rotate()
	}
	if err == nil && len(batch) > 0 {
		if _, werr := w.seg.Write(batch); werr != nil {
			err = fmt.Errorf("wal: write segment: %w", werr)
		} else {
			w.segSize += int64(len(batch))
			w.bytes.Add(int64(len(batch)))
		}
	}
	if err == nil && sync {
		if serr := w.seg.Sync(); serr != nil {
			err = fmt.Errorf("wal: fsync segment: %w", serr)
		} else {
			w.fsyncs.Add(1)
			w.lastFsyncNs.Store(time.Now().UnixNano())
			w.durableBytes = w.segSize
		}
	}

	w.mu.Lock()
	w.flushing = false
	if err != nil {
		w.sticky = err
	} else {
		w.written = batchEnd
		if sync {
			w.durable = batchEnd
		}
	}
	w.cond.Broadcast()
}

// rotate closes the active segment durably and starts the next one.
// Called only by the flush leader (w.flushing held).
func (w *WAL) rotate() error {
	if err := w.seg.Sync(); err != nil {
		return fmt.Errorf("wal: fsync before rotate: %w", err)
	}
	w.fsyncs.Add(1)
	w.lastFsyncNs.Store(time.Now().UnixNano())
	if err := w.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	w.segSeq++
	name := filepath.Join(w.dir, segmentName(w.segSeq))
	seg, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		seg.Close()
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	w.seg = seg
	w.segName = name
	w.segSize = 0
	w.durableBytes = 0
	w.rotations.Add(1)
	w.segments.Add(1)
	return nil
}

// BeginSnapshot seals the log for a snapshot: it flushes and fsyncs
// everything pending, rotates to a fresh segment, and returns that
// segment's sequence — the snapshot's coverage point — plus the base
// record sequence the snapshot will cover (every record ever appended,
// for replication lag accounting). Every record reserved before the
// call lives in segments below the returned seq; the caller must
// therefore include them all in the snapshot content (hold your apply
// lock across state capture and BeginSnapshot).
func (w *WAL) BeginSnapshot() (cover, base uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.readOnly {
		return 0, 0, ErrReadOnly
	}
	if w.closed {
		return 0, 0, ErrClosed
	}
	if w.sticky != nil {
		return 0, 0, w.sticky
	}
	if w.pending != nil || w.durable < w.nextLSN {
		w.flushLocked(true)
		if w.sticky != nil {
			return 0, 0, w.sticky
		}
	}
	// Rotation needs the flushing token to touch the segment fields.
	w.flushing = true
	w.mu.Unlock()
	rerr := w.rotate()
	w.mu.Lock()
	w.flushing = false
	if rerr != nil {
		w.sticky = rerr
	}
	w.cond.Broadcast()
	if w.sticky != nil {
		return 0, 0, w.sticky
	}
	return w.segSeq, w.recoveredSeq + w.nextLSN, nil
}

// CompleteSnapshot publishes the snapshot covering everything below
// cover (from BeginSnapshot, together with base) and compacts: the file
// is written with the temp+rename+dir-fsync ritual, then obsolete
// segments and older snapshots are deleted. fill must emit every record
// of the captured state via emit; each frame streams to the temp file
// as it is emitted, so emit does not keep payload and the caller may
// reuse it at once.
func (w *WAL) CompleteSnapshot(cover, base uint64, fill func(emit func(payload []byte) error) error) error {
	if w.readOnly {
		return ErrReadOnly
	}
	path := filepath.Join(w.dir, snapshotName(cover))
	err := WriteStreamAtomic(w.fs, path, func(out io.Writer) error {
		bw := bufio.NewWriterSize(out, snapshotBufBytes)
		write := func(payload []byte) error {
			hdr := frameHeader(payload)
			_, _ = bw.Write(hdr[:]) // a bufio.Writer's error sticks: the payload's Write reports it
			_, err := bw.Write(payload)
			return err
		}
		if err := write([]byte(snapshotMagic)); err != nil {
			return err
		}
		if err := write([]byte(basePrefix + strconv.FormatUint(base, 10))); err != nil {
			return err
		}
		count := 0
		err := fill(func(payload []byte) error {
			if len(payload) > MaxFramePayload {
				return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
			}
			count++
			return write(payload)
		})
		if err != nil {
			return fmt.Errorf("wal: snapshot fill: %w", err)
		}
		if err := write([]byte(sealPrefix + strconv.Itoa(count))); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	return w.compact(cover)
}

// snapshotBufBytes is the write buffer between a snapshot's frames and
// its temp file: the file takes a few large writes whatever the record
// count.
const snapshotBufBytes = 1 << 20

// compact removes segments and snapshots wholly covered by the snapshot
// at cover. Failures are non-fatal at the caller (retried by the next
// boot's recovery sweep), but reported.
func (w *WAL) compact(cover uint64) error {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: compact readdir: %w", err)
	}
	removedSegs := int64(0)
	var firstErr error
	for _, name := range names {
		full := filepath.Join(w.dir, name)
		if seq, ok := parseSeq(name, "wal-", ".seg"); ok && seq < cover {
			if rerr := w.fs.Remove(full); rerr != nil {
				if firstErr == nil {
					firstErr = rerr
				}
			} else {
				removedSegs++
			}
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok && seq < cover {
			if rerr := w.fs.Remove(full); rerr != nil && firstErr == nil {
				firstErr = rerr
			}
		}
	}
	w.segments.Add(-removedSegs)
	if firstErr != nil {
		return fmt.Errorf("wal: compact: %w", firstErr)
	}
	return nil
}

// Snapshot captures, publishes and compacts in one call for callers
// without their own ordering concerns (tests, tools). fill runs after
// the coverage point is sealed.
func (w *WAL) Snapshot(fill func(emit func(payload []byte) error) error) error {
	cover, base, err := w.BeginSnapshot()
	if err != nil {
		return err
	}
	return w.CompleteSnapshot(cover, base, fill)
}

// Close flushes pending records durably and closes the active segment.
// Further appends return ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	if w.sticky == nil && (len(w.pending) > 0 || w.durable < w.nextLSN) {
		w.flushLocked(true)
	}
	w.closed = true
	err := w.sticky
	seg := w.seg
	w.seg = nil
	w.cond.Broadcast()
	w.mu.Unlock()

	if seg != nil {
		if cerr := seg.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Err reports the WAL's sticky failure: nil while healthy, or the first
// I/O error that wedged the log (every later append returns it too). The
// elector uses this to tell "my disk died" apart from "I am fine" — a
// wedged leader abdicates its lease so a follower can take over, while
// its manifest keeps serving the durable prefix for the final drain.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sticky
}

// Stats snapshots the operational counters.
func (w *WAL) Stats() Stats {
	s := Stats{
		Appends:             w.appends.Load(),
		AppendedBytes:       w.bytes.Load(),
		Fsyncs:              w.fsyncs.Load(),
		Rotations:           w.rotations.Load(),
		Segments:            w.segments.Load(),
		RecoveredRecords:    int64(w.lastRecovery.SnapshotRecords + w.lastRecovery.SegmentRecords),
		TornTailTruncations: int64(w.lastRecovery.TornTailTruncations),
		Policy:              w.policy,
	}
	if ns := w.lastFsyncNs.Load(); ns > 0 {
		s.LastFsync = time.Unix(0, ns)
	}
	return s
}
