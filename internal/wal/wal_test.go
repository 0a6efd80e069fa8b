package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// openCollect opens the WAL collecting replayed payloads as strings.
func openCollect(t *testing.T, dir string, opts Options) (*WAL, Recovery, []string) {
	t.Helper()
	var got []string
	w, rec, err := Open(dir, opts, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, rec, got
}

// commit logs one record the way a durable store does: Reserve assigns
// its place in the log, Commit waits for the policy's durability point.
func commit(w *WAL, payload []byte) error {
	lsn, err := w.Reserve([][]byte{payload})
	if err != nil {
		return err
	}
	return w.Commit(lsn)
}

// snapshot seals the log and publishes fill's records over it: the two
// steps a durable store's Snapshot takes around its state capture.
func snapshot(w *WAL, fill func(emit func(payload []byte) error) error) error {
	cover, base, err := w.BeginSnapshot()
	if err != nil {
		return err
	}
	return w.CompleteSnapshot(cover, base, fill)
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, rec, got := openCollect(t, dir, Options{})
	if len(got) != 0 || rec.Outcome() != "clean" {
		t.Fatalf("fresh dir recovered %d records, outcome %s", len(got), rec.Outcome())
	}
	var want []string
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("record-%03d", i)
		if err := commit(w, []byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, got2 := openCollect(t, dir, Options{})
	if rec2.Outcome() != "clean" {
		t.Fatalf("outcome %s, want clean", rec2.Outcome())
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("recovered %d records, want %d (first diff near %v)", len(got2), len(want), diffAt(got2, want))
	}
}

func TestRotationAndStats(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		if err := commit(w, []byte(fmt.Sprintf("rotating-record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotations despite tiny segment limit")
	}
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2", st.Segments)
	}
	if st.Appends != 50 {
		t.Fatalf("Appends = %d, want 50", st.Appends)
	}
	if st.Fsyncs == 0 || st.LastFsync.IsZero() {
		t.Fatal("fsync accounting empty under FsyncAlways")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, got := openCollect(t, dir, Options{})
	if len(got) != 50 {
		t.Fatalf("recovered %d records across segments, want 50", len(got))
	}
}

func TestSnapshotCompactRecover(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{SegmentBytes: 128})
	state := map[string]string{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%d", i%7)
		v := fmt.Sprintf("val-%d", i)
		state[k] = v
		if err := commit(w, []byte(k+"="+v)); err != nil {
			t.Fatal(err)
		}
	}
	err := snapshot(w, func(emit func([]byte) error) error {
		for k, v := range state {
			if err := emit([]byte(k + "=" + v)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Post-snapshot appends land in segments the snapshot does not cover.
	state["key-post"] = "after"
	if err := commit(w, []byte("key-post=after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction must have deleted the pre-snapshot segments.
	names, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs++
		}
	}
	if segs > 2 {
		t.Fatalf("%d segments survive compaction, want <= 2", segs)
	}

	rebuilt := map[string]string{}
	_, rec, err := Open(dir, Options{}, func(p []byte) error {
		k, v, ok := strings.Cut(string(p), "=")
		if !ok {
			return fmt.Errorf("bad record %q", p)
		}
		rebuilt[k] = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotRecords != len(state)-1 {
		t.Fatalf("snapshot carried %d records, want %d", rec.SnapshotRecords, len(state)-1)
	}
	if !reflect.DeepEqual(rebuilt, state) {
		t.Fatalf("state after snapshot+replay:\n got %v\nwant %v", rebuilt, state)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := commit(w, []byte(fmt.Sprintf("good-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segName := w.segName
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: a half-frame at the end of the newest
	// segment.
	f, err := os.OpenFile(segName, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100) // promises 100 bytes that never arrive
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, rec, got := openCollect(t, dir, Options{})
	if rec.TornTailTruncations != 1 {
		t.Fatalf("TornTailTruncations = %d, want 1", rec.TornTailTruncations)
	}
	if rec.Outcome() != "torn_tail_truncated" {
		t.Fatalf("outcome %s", rec.Outcome())
	}
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want the 10 before the tear", len(got))
	}
	if s := w2.Stats(); s.TornTailTruncations != 1 {
		t.Fatalf("stats torn = %d", s.TornTailTruncations)
	}
	// The truncated file must now be clean: a third boot sees no tear.
	w2.Close()
	_, rec3, _ := openCollect(t, dir, Options{})
	if rec3.Outcome() != "clean" {
		t.Fatalf("second recovery outcome %s, want clean", rec3.Outcome())
	}
}

func TestMidLogCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Two segments: corrupt the first, keep the second intact.
	w, _, _ := openCollect(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := commit(w, []byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v", segs)
	}
	victim := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("first segment %s empty", segs[0])
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, got := openCollect(t, dir, Options{})
	if !errors.Is(rec.Failure, ErrCorruptSegment) {
		t.Fatalf("Failure = %v, want ErrCorruptSegment", rec.Failure)
	}
	if rec.Outcome() != "quarantined_segment" {
		t.Fatalf("outcome %s", rec.Outcome())
	}
	if len(rec.QuarantinedSegments) != 1 || rec.QuarantinedSegments[0] != segs[0] {
		t.Fatalf("quarantined %v, want [%s]", rec.QuarantinedSegments, segs[0])
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("quarantined segment not renamed: %v", err)
	}
	// Replay stops at the corruption: the recovered records are a strict
	// prefix, never a gapped subsequence.
	for i, p := range got {
		if want := fmt.Sprintf("record-%02d", i); p != want {
			t.Fatalf("record %d = %q, want %q (gapped replay?)", i, p, want)
		}
	}
	if len(got) >= 20 {
		t.Fatalf("recovered %d records despite corruption", len(got))
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openCollect(t, dir, Options{})
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := commit(w, []byte(fmt.Sprintf("w%d-%03d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	// Group commit must have shared fsyncs: strictly fewer syncs than
	// appends would be ideal, but at minimum the log cannot have MORE.
	if st.Fsyncs > st.Appends {
		t.Fatalf("%d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, got := openCollect(t, dir, Options{})
	if len(got) != writers*perWriter {
		t.Fatalf("recovered %d, want %d", len(got), writers*perWriter)
	}
	// Per-writer order must be preserved even though writers interleave.
	idx := map[int]int{}
	for _, p := range got {
		var g, i int
		if _, err := fmt.Sscanf(p, "w%d-%d", &g, &i); err != nil {
			t.Fatalf("bad record %q", p)
		}
		if i != idx[g] {
			t.Fatalf("writer %d record %d arrived out of order (want %d)", g, i, idx[g])
		}
		idx[g]++
	}
}

// TestIntervalAndNeverPoliciesRecover keeps its name from when an interval
// fsync policy existed; never is the one non-always policy left.
func TestIntervalAndNeverPoliciesRecover(t *testing.T) {
	for _, p := range []Policy{FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, _, _ := openCollect(t, dir, Options{Policy: p})
			for i := 0; i < 25; i++ {
				if err := commit(w, []byte(fmt.Sprintf("r%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil { // Close syncs
				t.Fatal(err)
			}
			_, _, got := openCollect(t, dir, Options{Policy: p})
			if len(got) != 25 {
				t.Fatalf("recovered %d, want 25", len(got))
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w, _, _ := openCollect(t, t.TempDir(), Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := commit(w, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"always", FsyncAlways}, {"never", FsyncNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("round trip %q -> %q", tc.in, got.String())
		}
	}
	for _, garbage := range []string{"sometimes", "interval"} {
		if _, err := ParsePolicy(garbage); err == nil {
			t.Fatalf("ParsePolicy accepted %q", garbage)
		}
	}
}

func diffAt(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}
