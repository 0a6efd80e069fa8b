package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/wal"
	"mcbound/internal/wal/crashfs"
	"mcbound/internal/workload"
)

func durJob(i int) *job.Job {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	end := base.Add(time.Duration(i) * time.Minute)
	return &job.Job{
		ID:         fmt.Sprintf("job-%05d", i),
		User:       "u1",
		Name:       "bench",
		SubmitTime: end.Add(-time.Hour),
		StartTime:  end.Add(-30 * time.Minute),
		EndTime:    end,
	}
}

func TestDurableInsertReplay(t *testing.T) {
	fs := crashfs.New(1)
	d, err := OpenDurable("data", nil, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := d.Insert(durJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable("data", nil, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n := d2.Store().Len(); n != 40 {
		t.Fatalf("replayed %d jobs, want 40", n)
	}
	if d2.Recovery().Outcome() != "clean" {
		t.Fatalf("outcome %s, want clean", d2.Recovery().Outcome())
	}
}

func TestDurableSeedBecomesSnapshot(t *testing.T) {
	seed := New()
	for i := 0; i < 25; i++ {
		if err := seed.Insert(durJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs := crashfs.New(2)
	d, err := OpenDurable("data", seed, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Store().Len(); n != 25 {
		t.Fatalf("seeded store has %d jobs, want 25", n)
	}
	d.Close()
	fs.Crash()

	d2, err := OpenDurable("data", nil, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n := d2.Store().Len(); n != 25 {
		t.Fatalf("after crash: %d jobs, want the 25 seeded", n)
	}
	if d2.Recovery().SnapshotRecords != 25 {
		t.Fatalf("snapshot records %d, want 25", d2.Recovery().SnapshotRecords)
	}
}

// TestDurableSnapshotRoundTripBitIdentical drives the full snapshot →
// rotate → compact → recover cycle and requires the recovered store to
// serialize to the exact same bytes as the original.
func TestDurableSnapshotRoundTripBitIdentical(t *testing.T) {
	fs := crashfs.New(3)
	d, err := OpenDurable("data", nil, DurableOptions{
		FS: fs, Policy: wal.FsyncAlways, SegmentBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := d.Insert(durJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 120; i++ { // spans several 2 KiB segments
		if err := d.Insert(durJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := d.Store().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	d2, err := OpenDurable("data", nil, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var got bytes.Buffer
	if err := d2.Store().WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("recovered state differs: %d vs %d bytes", got.Len(), want.Len())
	}
	if rec := d2.Recovery(); rec.SnapshotRecords != 60 {
		t.Fatalf("snapshot records %d, want 60 (compaction did not keep the snapshot)", rec.SnapshotRecords)
	}
}

func TestDurableAutoSnapshotCountdown(t *testing.T) {
	fs := crashfs.New(4)
	d, err := OpenDurable("data", nil, DurableOptions{
		FS: fs, Policy: wal.FsyncAlways, SnapshotEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := d.Insert(durJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil { // waits for the background snapshot
		t.Fatal(err)
	}
	d2, err := OpenDurable("data", nil, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if rec.SnapshotRecords == 0 {
		t.Fatal("countdown never produced a snapshot")
	}
	if n := d2.Store().Len(); n != 35 {
		t.Fatalf("recovered %d jobs, want 35", n)
	}
}

func TestDurableHealth(t *testing.T) {
	fs := crashfs.New(5)
	d, err := OpenDurable("data", nil, DurableOptions{FS: fs, Policy: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Insert(durJob(0)); err != nil {
		t.Fatal(err)
	}
	h := d.Health()
	if h.Policy != "always" {
		t.Fatalf("policy %q", h.Policy)
	}
	if h.RecoveryOutcome != "clean" {
		t.Fatalf("outcome %q", h.RecoveryOutcome)
	}
	if h.Appends != 1 {
		t.Fatalf("appends %d, want 1", h.Appends)
	}
	if h.LastFsyncAgeSeconds < 0 {
		t.Fatal("fsync age negative after an fsynced append")
	}
}

// The durable files' bytes are pinned: a seeded snapshot of a generated
// trace and the segment its later inserts log hash to what the store
// wrote when every record went through json.Marshal and the snapshot
// was built in memory before it was written.
func TestSnapshotBytesUnchanged(t *testing.T) {
	jobs, err := workload.NewGenerator(workload.EvalConfig(0.005), 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		j.TrueLabel = job.Label(i % 3)
	}
	half := len(jobs) / 2
	seed := New()
	if err := seed.Insert(jobs[:half]...); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := OpenDurable(dir, seed, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for lo := half; lo < len(jobs); lo += 100 {
		if err := d.Insert(jobs[lo:min(lo+100, len(jobs))]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"snap-0000000000000002.snap": "fe403a077caa115a1188b596cbfe7421fe6dd8b2f27e8907d272c2d2ff9ef2d0",
		"wal-0000000000000002.seg":   "21a54f490001748beac29d578e7734e5802e9cdcde4b948e0fb6213acc35580b",
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got, sum)
		}
	}
}
