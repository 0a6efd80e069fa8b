package wal_test

// The WAL-level crash-consistency suite (make crash). Each test builds a
// log over a seeded crashfs, kills the "process" at an arbitrary byte
// offset, crashes the "machine" (dropping unsynced bytes, tearing and
// bit-flipping the tail), reopens, and checks the durability contract:
//
//   - fsync=always: recovery restores EXACTLY the acknowledged prefix —
//     nothing acked is lost, nothing unacked half-appears, no record is
//     duplicated or reordered;
//   - every policy: the recovered sequence is a clean prefix of what was
//     appended — a corrupt or duplicated record never loads.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcbound/internal/stats"
	"mcbound/internal/wal"
	"mcbound/internal/wal/crashfs"
)

// appendUntilKilled appends numbered records until the kill switch
// fires (or maxRecords is reached) and returns the acknowledged ones.
func appendUntilKilled(t *testing.T, w *wal.WAL, maxRecords int) (acked []string) {
	t.Helper()
	for i := 0; i < maxRecords; i++ {
		p := fmt.Sprintf("r-%05d", i)
		if err := wal.CommitRecord(w, []byte(p)); err != nil {
			return acked
		}
		acked = append(acked, p)
	}
	return acked
}

func reopenCollect(t *testing.T, fs *crashfs.FS, opts wal.Options) (wal.Recovery, []string) {
	t.Helper()
	opts.FS = fs
	var got []string
	w, rec, err := wal.Open("wal", opts, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	w.Close()
	return rec, got
}

// TestCrashFsyncAlwaysExactPrefix sweeps 60 seeded kill points and
// requires byte-exact equality between the acknowledged records and the
// recovered ones under fsync=always.
func TestCrashFsyncAlwaysExactPrefix(t *testing.T) {
	const seeds = 60
	tornSeen := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := stats.NewRNG(seed * 7919)
		fs := crashfs.New(seed)
		w, _, err := wal.Open("wal", wal.Options{FS: fs, Policy: wal.FsyncAlways, SegmentBytes: 600}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Kill somewhere inside the byte stream ~150 records produce.
		fs.KillAfterBytes(int64(rng.Intn(150 * 22)))
		acked := appendUntilKilled(t, w, 150)
		if !fs.Killed() && len(acked) == 150 {
			// Kill point beyond the workload: crash without a kill still
			// must preserve everything (it was all fsynced).
			w.Close()
		}
		fs.Crash()

		rec, got := reopenCollect(t, fs, wal.Options{Policy: wal.FsyncAlways})
		if rec.Failure != nil {
			t.Fatalf("seed %d: recovery failure %v", seed, rec.Failure)
		}
		if !reflect.DeepEqual(got, acked) {
			t.Fatalf("seed %d: recovered %d records, acked %d (acked prefix must round-trip exactly)",
				seed, len(got), len(acked))
		}
		tornSeen += rec.TornTailTruncations
	}
	// Across 60 kill points at least some must have produced a torn
	// tail; if none did, the fault injector is not injecting.
	if tornSeen == 0 {
		t.Fatal("60 crashes produced zero torn tails — fault injection inert")
	}
}

// TestCrashAllPoliciesCleanPrefix checks the weaker invariant every
// policy must uphold: whatever recovery loads is a clean, duplicate-free
// prefix of the appended sequence.
func TestCrashAllPoliciesCleanPrefix(t *testing.T) {
	for _, policy := range []wal.Policy{wal.FsyncAlways, wal.FsyncNever} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				rng := stats.NewRNG(seed * 104729)
				fs := crashfs.New(seed + 1000)
				w, _, err := wal.Open("wal", wal.Options{FS: fs, Policy: policy, SegmentBytes: 600}, nil)
				if err != nil {
					t.Fatal(err)
				}
				fs.KillAfterBytes(int64(rng.Intn(120 * 22)))
				acked := appendUntilKilled(t, w, 120)
				fs.Crash()

				rec, got := reopenCollect(t, fs, wal.Options{Policy: policy})
				if rec.Failure != nil {
					t.Fatalf("seed %d: recovery failure %v", seed, rec.Failure)
				}
				// Prefix check against the attempted sequence r-00000...:
				// any gap, duplicate, reorder or corruption shows up as a
				// mismatch at some index.
				for i, p := range got {
					if want := fmt.Sprintf("r-%05d", i); p != want {
						t.Fatalf("seed %d: record %d = %q, want %q", seed, i, p, want)
					}
				}
				if policy == wal.FsyncAlways && len(got) < len(acked) {
					t.Fatalf("seed %d: lost %d acked records", seed, len(acked)-len(got))
				}
			}
		})
	}
}

// TestCrashDuringSnapshotKeepsOldState kills the process while the
// snapshot file is being written: the half-written temp file must be
// ignored and the pre-snapshot log must still recover in full.
func TestCrashDuringSnapshotKeepsOldState(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		fs := crashfs.New(seed + 2000)
		w, _, err := wal.Open("wal", wal.Options{FS: fs, Policy: wal.FsyncAlways, SegmentBytes: 600}, nil)
		if err != nil {
			t.Fatal(err)
		}
		acked := appendUntilKilled(t, w, 80)
		if len(acked) != 80 {
			t.Fatalf("seed %d: setup appends failed", seed)
		}
		// Arm the kill inside the snapshot body (its ~80 record frames).
		rng := stats.NewRNG(seed)
		fs.KillAfterBytes(int64(rng.Intn(80 * 20)))
		err = wal.PublishSnapshot(w, func(emit func([]byte) error) error {
			for _, p := range acked {
				if err := emit([]byte(p)); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			// Kill point landed after the snapshot completed; then the
			// snapshot must survive instead.
			t.Logf("seed %d: snapshot completed before kill", seed)
		}
		fs.Crash()

		rec, got := reopenCollect(t, fs, wal.Options{Policy: wal.FsyncAlways})
		if rec.Failure != nil {
			t.Fatalf("seed %d: recovery failure %v", seed, rec.Failure)
		}
		if !reflect.DeepEqual(got, acked) {
			t.Fatalf("seed %d: recovered %d records, want the 80 acked (snapshot crash leaked state)",
				seed, len(got))
		}
	}
}

// TestCrashBitRotInColdSegmentQuarantines flips a durable bit in a
// fully-fsynced old segment — damage no fsync discipline prevents — and
// checks recovery stops at a clean prefix with the typed error.
func TestCrashBitRotInColdSegmentQuarantines(t *testing.T) {
	fs := crashfs.New(42)
	w, _, err := wal.Open("wal", wal.Options{FS: fs, Policy: wal.FsyncAlways, SegmentBytes: 400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	acked := appendUntilKilled(t, w, 100)
	if len(acked) != 100 {
		t.Fatal("setup appends failed")
	}
	w.Close()
	var victim string
	for _, name := range fs.DurableNames() {
		if strings.HasSuffix(name, ".seg") {
			victim = name // alphabetical: first .seg is the oldest
			break
		}
	}
	if !fs.FlipDurableTail(victim, 50) {
		t.Fatalf("could not corrupt %s", victim)
	}
	fs.Crash()

	rec, got := reopenCollect(t, fs, wal.Options{Policy: wal.FsyncAlways})
	if rec.Outcome() != "quarantined_segment" {
		t.Fatalf("outcome %s, want quarantined_segment", rec.Outcome())
	}
	for i, p := range got {
		if want := fmt.Sprintf("r-%05d", i); p != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}
	if len(got) >= 100 {
		t.Fatal("recovered everything despite corrupted cold segment")
	}
}
