package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// The fencing epoch lives in its own small file next to the segments: a
// promotion durably bumps it before the new leader accepts writes, and
// every manifest and chunk response carries it so a follower can reject
// data from a deposed leader that is still running.
const epochFile = "epoch"

// ErrUnknownFile is returned by ReadChunk for names outside the
// segment/snapshot patterns or files that do not exist (the name usually
// arrives from an HTTP path, so nothing else under the directory — the
// epoch file, quarantined *.corrupt files, in-flight *.tmp files — is
// ever served).
var ErrUnknownFile = errors.New("wal: unknown replication file")

// MaxChunkBytes caps a single replication read.
const MaxChunkBytes int64 = 1 << 20

// ReadEpoch returns the fencing epoch recorded under dir, or 0 when none
// has been written yet.
func ReadEpoch(fsys FS, dir string) (uint64, error) {
	if fsys == nil {
		fsys = OS
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	found := false
	for _, n := range names {
		if n == epochFile {
			found = true
			break
		}
	}
	if !found {
		return 0, nil
	}
	data, err := readFile(fsys, filepath.Join(dir, epochFile))
	if err != nil {
		return 0, err
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: parse epoch file: %w", err)
	}
	return e, nil
}

// WriteEpoch durably records the fencing epoch under dir with the
// atomic-replace ritual. The promotion path calls it before reopening
// the log for writes.
func WriteEpoch(fsys FS, dir string, epoch uint64) error {
	if fsys == nil {
		fsys = OS
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	return WriteFileAtomic(fsys, filepath.Join(dir, epochFile), []byte(strconv.FormatUint(epoch, 10)+"\n"))
}

// Epoch returns the fencing epoch this WAL operates under.
func (w *WAL) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// CommittedSeq is the durable record sequence: the count of records ever
// appended to this log's history (across snapshots and compactions) that
// are covered by an fsync. Followers compare their applied sequence
// against it for lag accounting.
func (w *WAL) CommittedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recoveredSeq + w.durable
}

// SetBaseSeq raises the recovered record sequence. The promotion path
// uses it so a follower-turned-leader continues sequence numbering where
// its applied stream ended rather than where its local disk did. Must be
// called before the first append; lowering the sequence is ignored.
func (w *WAL) SetBaseSeq(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.recoveredSeq {
		w.recoveredSeq = seq
	}
}

// ManifestFile describes one replicable file.
type ManifestFile struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	Sealed bool   `json:"sealed"`
}

// Manifest is the replication handshake a leader serves: the fencing
// epoch, the durable record sequence, and the fetchable files in replay
// order. The active segment is reported unsealed with its size capped at
// the fsynced watermark, so a follower never applies bytes a leader
// crash could still lose; sealed files are always fully fsynced before
// they become visible, so their sizes are the full file sizes.
type Manifest struct {
	Epoch        uint64         `json:"epoch"`
	CommittedSeq uint64         `json:"committed_seq"`
	Segments     []ManifestFile `json:"segments"`
	Snapshots    []ManifestFile `json:"snapshots"`
}

// Manifest snapshots the replicable state of the log. It holds the
// append lock for the directory scan, so the reported files and sizes
// are mutually consistent; concurrent compaction can only remove entries
// (a vanished file is skipped, and the follower re-reads the manifest).
func (w *WAL) Manifest() (Manifest, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.closed {
		return Manifest{}, ErrClosed
	}
	// A sticky append failure does NOT stop the manifest: a wedged
	// leader (disk gone read-only, kill-point hit) can no longer ack
	// writes, but serving its durable prefix is exactly what lets a
	// follower drain to the committed sequence before promotion.
	m := Manifest{Epoch: w.epoch, CommittedSeq: w.recoveredSeq + w.durable}
	activeName := ""
	if w.segName != "" {
		activeName = filepath.Base(w.segName)
	}
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return Manifest{}, fmt.Errorf("wal: manifest readdir: %w", err)
	}
	for _, name := range names {
		isSeg := false
		if _, ok := parseSeq(name, "wal-", ".seg"); ok {
			isSeg = true
		} else if _, ok := parseSeq(name, "snap-", ".snap"); !ok {
			continue
		}
		f := ManifestFile{Name: name, Sealed: true}
		if isSeg && name == activeName {
			f.Size = w.durableBytes
			f.Sealed = false
		} else {
			size, serr := w.fs.Stat(filepath.Join(w.dir, name))
			if serr != nil {
				// Compacted away between ReadDir and Stat.
				continue
			}
			f.Size = size
		}
		if isSeg {
			m.Segments = append(m.Segments, f)
		} else {
			m.Snapshots = append(m.Snapshots, f)
		}
	}
	return m, nil
}

// ReadChunk serves up to max bytes of a replicable file starting at off
// (max <= 0 or beyond MaxChunkBytes selects MaxChunkBytes). Reads at or
// past the end return an empty slice. Only names matching the
// segment/snapshot patterns are served. Only the chunk's own range is
// read, so serving a file chunk by chunk reads it once.
func (w *WAL) ReadChunk(name string, off, max int64) ([]byte, error) {
	if _, ok := parseSeq(name, "wal-", ".seg"); !ok {
		if _, ok := parseSeq(name, "snap-", ".snap"); !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFile, name)
		}
	}
	if off < 0 {
		return nil, fmt.Errorf("wal: negative chunk offset %d", off)
	}
	if max <= 0 || max > MaxChunkBytes {
		max = MaxChunkBytes
	}
	path := filepath.Join(w.dir, name)
	size, err := w.fs.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnknownFile, name, err)
	}
	if off >= size {
		return nil, nil
	}
	data := make([]byte, min(max, size-off))
	n, err := w.fs.ReadAt(path, data, off)
	if err != nil && err != io.EOF {
		// Compacted away between Stat and ReadAt.
		return nil, fmt.Errorf("%w: %s: %v", ErrUnknownFile, name, err)
	}
	return data[:n:n], nil
}
