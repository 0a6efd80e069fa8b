package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
)

func TestEpochStartsAtOneAndPersists(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	if got := w.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := ReadEpoch(OS, dir); err != nil || e != 1 {
		t.Fatalf("ReadEpoch = %d, %v; want 1, nil", e, err)
	}

	w2, _, _ := openCollect(t, dir, Options{})
	if got := w2.Epoch(); got != 1 {
		t.Fatalf("reopened epoch = %d, want 1", got)
	}
	w2.Close()

	w3, _, _ := openCollect(t, dir, Options{BumpEpoch: true})
	if got := w3.Epoch(); got != 2 {
		t.Fatalf("bumped epoch = %d, want 2", got)
	}
	w3.Close()
	if e, _ := ReadEpoch(OS, dir); e != 2 {
		t.Fatalf("epoch file after bump = %d, want 2", e)
	}

	// The bump is durable: a plain reopen stays at 2.
	w4, _, _ := openCollect(t, dir, Options{})
	defer w4.Close()
	if got := w4.Epoch(); got != 2 {
		t.Fatalf("epoch after bump+reopen = %d, want 2", got)
	}
}

func TestCorruptEpochFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, "epoch"), []byte("1J\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt fencing token must fail boot loudly, not silently reset
	// to epoch 1 (which could un-fence a deposed leader).
	if _, _, err := Open(dir, Options{}, nil); err == nil {
		t.Fatal("open succeeded over a corrupt epoch file")
	}
}

// dirState captures every durable file's name and content.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func TestManifestActiveSegmentCappedAtDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{Policy: FsyncNever})
	defer w.Close()
	for i := 0; i < 10; i++ {
		if err := commit(w, []byte(fmt.Sprintf("watermark-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(m.Segments))
	}
	// FsyncNever: bytes are written but never fsynced, so the manifest
	// must expose none of them — a leader crash could lose them all.
	if m.Segments[0].Size != 0 || m.Segments[0].Sealed {
		t.Fatalf("active segment = %+v, want size 0, unsealed", m.Segments[0])
	}
	if m.CommittedSeq != 0 {
		t.Fatalf("CommittedSeq = %d, want 0 under FsyncNever", m.CommittedSeq)
	}
}

func TestManifestTracksCommittedAppends(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	defer w.Close()
	var want int64
	for i := 0; i < 25; i++ {
		p := []byte(fmt.Sprintf("committed-%02d", i))
		if err := commit(w, p); err != nil {
			t.Fatal(err)
		}
		want += int64(FrameHeaderBytes + len(p))
	}
	m, err := w.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.CommittedSeq != 25 {
		t.Fatalf("CommittedSeq = %d, want 25", m.CommittedSeq)
	}
	if m.Epoch != 1 {
		t.Fatalf("manifest epoch = %d, want 1", m.Epoch)
	}
	if len(m.Segments) != 1 || m.Segments[0].Size != want {
		t.Fatalf("segments = %+v, want one of size %d", m.Segments, want)
	}
	// The manifest's watermark and the chunk read must agree: reading
	// the active segment at the reported size returns exactly EOF.
	data, err := w.ReadChunk(m.Segments[0].Name, 0, m.Segments[0].Size)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != want {
		t.Fatalf("chunk = %d bytes, want %d", len(data), want)
	}
	if extra, err := w.ReadChunk(m.Segments[0].Name, m.Segments[0].Size, 0); err != nil || len(extra) != 0 {
		t.Fatalf("read past watermark: %d bytes, %v", len(extra), err)
	}
}

func TestReadChunkRejectsForeignNames(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	defer w.Close()
	for _, name := range []string{
		"epoch",                            // the fencing token is not replicable
		"../../../etc/passwd",              // traversal
		"wal-0000000000000000.seg",         // seq 0 is invalid
		"wal-0000000000000002.tmp",         // wrong suffix
		"snap-zzzz.snap",                   // unparsable seq
		"wal-0000000000000099.seg.corrupt", // quarantine artifacts stay private
	} {
		if _, err := w.ReadChunk(name, 0, 64); !errors.Is(err, ErrUnknownFile) {
			t.Fatalf("ReadChunk(%q) = %v, want ErrUnknownFile", name, err)
		}
	}
	// A well-formed name that simply does not exist is the same typed
	// error: the HTTP layer maps it to 404 and the follower re-syncs.
	if _, err := w.ReadChunk("wal-00000000000000aa.seg", 0, 64); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("missing segment: %v, want ErrUnknownFile", err)
	}
	if _, err := w.ReadChunk("wal-0000000000000001.seg", -1, 64); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// countingFS counts the bytes its reads hand out.
type countingFS struct {
	FS
	read atomic.Int64
}

func (c *countingFS) ReadAt(name string, p []byte, off int64) (int, error) {
	n, err := c.FS.ReadAt(name, p, off)
	c.read.Add(int64(n))
	return n, err
}

// A follower bootstrap reads a snapshot chunk by chunk; the leader must
// read each byte of it once, not the whole file for every chunk.
func TestReadChunkReadsOnlyItsRange(t *testing.T) {
	dir := t.TempDir()
	fsys := &countingFS{FS: OS}
	w, _, _ := openCollect(t, dir, Options{FS: fsys})
	defer w.Close()
	record := bytes.Repeat([]byte("r"), 4096)
	err := snapshot(w, func(emit func([]byte) error) error {
		for i := 0; i < 800; i++ { // ≈ 3.1 MiB: four chunks, the last one short
			if err := emit(record); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshots[0]
	want, err := os.ReadFile(filepath.Join(dir, snap.Name))
	if err != nil {
		t.Fatal(err)
	}

	fsys.read.Store(0)
	var got []byte
	for {
		chunk, err := w.ReadChunk(snap.Name, int64(len(got)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chunks reassemble to %d bytes, the file holds %d", len(got), len(want))
	}
	if read := fsys.read.Load(); read != snap.Size {
		t.Fatalf("serving a %d-byte file in %d-byte chunks read %d bytes", snap.Size, MaxChunkBytes, read)
	}

	fsys.read.Store(0)
	chunk, err := w.ReadChunk(snap.Name, MaxChunkBytes+5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, want[MaxChunkBytes+5:MaxChunkBytes+105]) {
		t.Fatal("a mid-file chunk is not the file's bytes at its range")
	}
	if read := fsys.read.Load(); read != 100 {
		t.Fatalf("a 100-byte chunk read %d bytes", read)
	}
}

func TestSnapshotBaseFrameRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	for i := 0; i < 7; i++ {
		if err := commit(w, []byte(fmt.Sprintf("pre-snap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot emits fewer records than the log holds (the store
	// deduplicated some): the base frame must still carry the covered
	// record sequence (7), not the record count (3).
	err := snapshot(w, func(emit func([]byte) error) error {
		for i := 0; i < 3; i++ {
			if err := emit([]byte(fmt.Sprintf("deduped-%d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var snapName string
	for name := range dirState(t, dir) {
		if _, ok := parseSeq(name, "snap-", ".snap"); ok {
			snapName = name
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	base, records, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if base != 7 || len(records) != 3 {
		t.Fatalf("DecodeSnapshot: base %d records %d, want 7 and 3", base, len(records))
	}
	if err := commit(w, []byte("post-snap")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery carries the base through: the committed sequence resumes
	// at 8 (7 covered by the snapshot + 1 logged after it).
	w2, rec, _ := openCollect(t, dir, Options{})
	defer w2.Close()
	if rec.SnapshotBase != 7 {
		t.Fatalf("Recovery.SnapshotBase = %d, want 7", rec.SnapshotBase)
	}
	if got := w2.CommittedSeq(); got != 8 {
		t.Fatalf("CommittedSeq after reopen = %d, want 8", got)
	}
}

func TestDecodeSnapshotLegacyWithoutBaseFrame(t *testing.T) {
	// Pre-replication snapshots had no base frame; the decoder falls
	// back to base = record count so old data dirs keep working.
	var buf []byte
	buf = AppendFrame(buf, []byte(snapshotMagic))
	for i := 0; i < 4; i++ {
		buf = AppendFrame(buf, []byte("legacy-"+strconv.Itoa(i)))
	}
	buf = AppendFrame(buf, []byte(sealPrefix+"4"))
	base, records, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if base != 4 || len(records) != 4 {
		t.Fatalf("legacy decode: base %d records %d, want 4 and 4", base, len(records))
	}
}
