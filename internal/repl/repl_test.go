package repl_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/job"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
	"mcbound/internal/wal"
)

// serveNode exposes a Node's replication surface over HTTP the way
// httpapi does, but swappable: get() is consulted per request so tests
// can stand up a new leader (or a deposed one) behind the same URL.
func serveNode(t *testing.T, get func() *repl.Node) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal/segments", func(w http.ResponseWriter, r *http.Request) {
		m, err := get().Manifest()
		if err != nil {
			writeNodeErr(w, err)
			return
		}
		w.Header().Set(repl.EpochHeader, strconv.FormatUint(m.Epoch, 10))
		json.NewEncoder(w).Encode(m)
	})
	mux.HandleFunc("GET /v1/wal/segments/{name}", func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		limit, _ := strconv.ParseInt(r.URL.Query().Get("limit"), 10, 64)
		data, epoch, err := get().ReadChunk(r.PathValue("name"), off, limit)
		if err != nil {
			writeNodeErr(w, err)
			return
		}
		w.Header().Set(repl.EpochHeader, strconv.FormatUint(epoch, 10))
		w.Write(data)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func writeNodeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, wal.ErrUnknownFile):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, repl.ErrNotLeader):
		http.Error(w, err.Error(), http.StatusMisdirectedRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func mkJob(id string) *job.Job {
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	return &job.Job{
		ID:         id,
		User:       "u",
		Name:       "app",
		SubmitTime: start,
		StartTime:  start.Add(time.Minute),
		EndTime:    start.Add(time.Hour),
	}
}

// newFollowerPair builds a follower applying into a fresh store,
// pointed at url.
func newFollowerPair(t *testing.T, url string) (*repl.Follower, *store.Store) {
	t.Helper()
	fst := store.New()
	f, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: url, Seed: 11}),
		Apply: func(p []byte) error {
			var j job.Job
			if err := json.Unmarshal(p, &j); err != nil {
				return err
			}
			return fst.Insert(&j)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, fst
}

func drain(t *testing.T, f *repl.Follower, d *store.Durable) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		if err := f.SyncNow(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if st := f.Status(); st.AppliedSeq >= d.CommittedSeq() {
			return
		}
	}
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	seed := store.New()
	for i := 0; i < 40; i++ {
		seed.Insert(mkJob(fmt.Sprintf("seed-%03d", i)))
	}
	d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	node := repl.NewLeader(d)
	srv := serveNode(t, func() *repl.Node { return node })

	f, fst := newFollowerPair(t, srv.URL)
	drain(t, f, d)
	if fst.Len() != 40 {
		t.Fatalf("bootstrap applied %d jobs, want 40", fst.Len())
	}
	st := f.Status()
	if st.State != repl.StateOK || st.Epoch != 1 {
		t.Fatalf("status after bootstrap = %+v", st)
	}

	// Live tail: new leader inserts appear on the follower without a
	// re-bootstrap, in order, with matching sequence accounting.
	for i := 0; i < 15; i++ {
		if err := d.Insert(mkJob(fmt.Sprintf("tail-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, f, d)
	if fst.Len() != 55 {
		t.Fatalf("after tail: %d jobs, want 55", fst.Len())
	}
	if _, err := fst.Get("tail-014"); err != nil {
		t.Fatalf("tailed record missing: %v", err)
	}
	st = f.Status()
	if st.Resyncs != 0 {
		t.Fatalf("tailing forced %d resyncs, want 0", st.Resyncs)
	}
	if st.AppliedSeq != d.CommittedSeq() {
		t.Fatalf("applied_seq %d != committed_seq %d", st.AppliedSeq, d.CommittedSeq())
	}
}

func TestFollowerResyncsAfterCompactionHorizon(t *testing.T) {
	seed := store.New()
	seed.Insert(mkJob("genesis"))
	// Tiny segments so the history rotates quickly.
	d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	node := repl.NewLeader(d)
	srv := serveNode(t, func() *repl.Node { return node })

	f, fst := newFollowerPair(t, srv.URL)
	drain(t, f, d)

	// While the follower is not looking, the leader writes far past it
	// and compacts: every segment the follower was positioned in is
	// replaced by a newer snapshot.
	for i := 0; i < 200; i++ {
		if err := d.Insert(mkJob(fmt.Sprintf("burst-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	drain(t, f, d)
	if fst.Len() != 201 {
		t.Fatalf("after compaction resync: %d jobs, want 201", fst.Len())
	}
	st := f.Status()
	if st.Resyncs == 0 {
		t.Fatal("compaction past the follower's position did not force a re-sync")
	}
	if st.AppliedSeq != d.CommittedSeq() {
		t.Fatalf("applied_seq %d != committed_seq %d", st.AppliedSeq, d.CommittedSeq())
	}
}

func TestFollowerRejectsStaleEpoch(t *testing.T) {
	mk := func(bump bool) (*store.Durable, *repl.Node) {
		seed := store.New()
		for i := 0; i < 10; i++ {
			seed.Insert(mkJob(fmt.Sprintf("epoch-%d", i)))
		}
		d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{BumpEpoch: bump})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d, repl.NewLeader(d)
	}
	dNew, nodeNew := mk(true) // epoch 2
	_, nodeOld := mk(false)   // epoch 1: the deposed leader

	var current atomic.Pointer[repl.Node]
	current.Store(nodeNew)
	srv := serveNode(t, func() *repl.Node { return current.Load() })

	f, fst := newFollowerPair(t, srv.URL)
	drain(t, f, dNew)
	if got := f.Status().Epoch; got != 2 {
		t.Fatalf("follower epoch = %d, want 2", got)
	}
	applied := f.Status().AppliedSeq

	// The deposed leader reappears behind the same address (a stale DNS
	// flip, a zombie process): every round against it must be rejected
	// without applying a single byte.
	current.Store(nodeOld)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := f.SyncNow(ctx)
	if !errors.Is(err, repl.ErrStaleEpoch) {
		t.Fatalf("sync against deposed leader: %v, want ErrStaleEpoch", err)
	}
	if st := f.Status(); st.AppliedSeq != applied || st.Epoch != 2 {
		t.Fatalf("stale leader moved the follower: %+v", st)
	}
	if fst.Len() != 10 {
		t.Fatalf("store changed against a stale leader: %d jobs", fst.Len())
	}

	// The real leader comes back: syncing resumes where it stopped.
	current.Store(nodeNew)
	drain(t, f, dNew)
	if st := f.Status(); st.LastError != "" {
		t.Fatalf("recovered sync left error %q", st.LastError)
	}
}

// TestFollowerCrashMidApplyResyncFromSnapshot is the kill-point test for
// the follower side: the applying process dies partway through a sync
// round (apply returns an error at a chosen record and the in-memory
// position is gone with the process). A restarted follower — fresh
// state, same leader — must re-sync from the newest snapshot and
// converge to the same applied sequence as an undisturbed one.
func TestFollowerCrashMidApplyResyncFromSnapshot(t *testing.T) {
	seed := store.New()
	for i := 0; i < 30; i++ {
		seed.Insert(mkJob(fmt.Sprintf("base-%03d", i)))
	}
	d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 25; i++ {
		if err := d.Insert(mkJob(fmt.Sprintf("live-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	node := repl.NewLeader(d)
	srv := serveNode(t, func() *repl.Node { return node })

	// First life: dies at the kill point, mid-apply of the segment tail.
	killAt := 40
	applied := 0
	fst1 := store.New()
	f1, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: srv.URL, Seed: 3}),
		Apply: func(p []byte) error {
			if applied >= killAt {
				return fmt.Errorf("kill point: follower dies mid-apply")
			}
			applied++
			var j job.Job
			if err := json.Unmarshal(p, &j); err != nil {
				return err
			}
			return fst1.Insert(&j)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := f1.SyncNow(ctx); serr == nil {
		t.Fatal("kill point never hit")
	}
	if fst1.Len() >= 55 {
		t.Fatalf("first life applied everything (%d) despite the kill point", fst1.Len())
	}

	// Second life: a fresh follower (the process restarted, nothing
	// carried over) converges from the snapshot + tail.
	f2, fst2 := newFollowerPair(t, srv.URL)
	drain(t, f2, d)
	if fst2.Len() != 55 {
		t.Fatalf("restarted follower applied %d jobs, want 55", fst2.Len())
	}
	if got, want := f2.Status().AppliedSeq, d.CommittedSeq(); got != want {
		t.Fatalf("applied_seq %d, want %d (convergence after crash)", got, want)
	}
}

// TestFollowerHealthStates drives the ok → lagging → disconnected
// transitions against a synthetic leader whose manifest can promise
// more records than it serves — the only way to hold a follower behind
// deterministically.
func TestFollowerHealthStates(t *testing.T) {
	var frames []byte
	for i := 0; i < 5; i++ {
		payload, _ := json.Marshal(mkJob(fmt.Sprintf("lag-%d", i)))
		frames = wal.AppendFrame(frames, payload)
	}
	var served atomic.Int64 // bytes of the segment the stub exposes
	served.Store(int64(len(frames)))
	const promised = 10 // committed_seq the stub claims

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal/segments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(repl.EpochHeader, "1")
		json.NewEncoder(w).Encode(wal.Manifest{
			Epoch:        1,
			CommittedSeq: promised,
			Segments:     []wal.ManifestFile{{Name: "wal-0000000000000001.seg", Size: served.Load()}},
		})
	})
	mux.HandleFunc("GET /v1/wal/segments/{name}", func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		w.Header().Set(repl.EpochHeader, "1")
		data := frames[:served.Load()]
		if off < int64(len(data)) {
			w.Write(data[off:])
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	clk := clock.NewManual(time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC))
	fst := store.New()
	f, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: srv.URL, Seed: 5}),
		Apply: func(p []byte) error {
			var j job.Job
			if err := json.Unmarshal(p, &j); err != nil {
				return err
			}
			return fst.Insert(&j)
		},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Round 1: the follower applies all 5 available records but the
	// manifest says 10 are committed — behind, though within max lag.
	if err := f.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.State != repl.StateOK || st.LagRecords != promised-5 {
		t.Fatalf("fresh lag: state %s lag %d, want ok and %d", st.State, st.LagRecords, promised-5)
	}

	// Behind for the whole 15 s max lag: still ok; a millisecond more
	// is lagging. Sync rounds keep succeeding, so this is not the
	// disconnected state.
	for _, step := range []struct {
		by   time.Duration
		want string
	}{{15 * time.Second, repl.StateOK}, {time.Millisecond, repl.StateLagging}} {
		clk.Advance(step.by)
		if err := f.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		if st = f.Status(); st.State != step.want {
			t.Fatalf("state %.3fs behind = %s, want %s", st.LagSeconds, st.State, step.want)
		}
	}
	if st.LagSeconds < 15 {
		t.Fatalf("replication_lag_seconds = %.3f, want > 15", st.LagSeconds)
	}

	// The missing records appear: one round catches up and resets to ok.
	for i := 5; i < promised; i++ {
		payload, _ := json.Marshal(mkJob(fmt.Sprintf("lag-%d", i)))
		frames = wal.AppendFrame(frames, payload)
	}
	served.Store(int64(len(frames)))
	if err := f.SyncNow(ctx); err != nil {
		t.Fatal(err)
	}
	if st = f.Status(); st.State != repl.StateOK || st.LagRecords != 0 || st.LagSeconds != 0 {
		t.Fatalf("state after catch-up = %+v, want ok with zero lag", st)
	}

	// Silence past the disconnect window (max(4×250 ms, 2 s)): no
	// successful round, state degrades to disconnected regardless of how
	// caught up it was.
	clk.Advance(2 * time.Second)
	if st = f.Status(); st.State != repl.StateOK {
		t.Fatalf("state after 2 s of silence = %s, want ok", st.State)
	}
	clk.Advance(time.Millisecond)
	if st = f.Status(); st.State != repl.StateDisconnected {
		t.Fatalf("state after silent window = %s, want disconnected", st.State)
	}
}

// TestFollowerRunOnVirtualTime drives the background loop — Run, not
// SyncNow — on a Manual clock: a round happens when the test advances
// the clock over a poll delay and at no other time, the default delays
// stay inside Poll ± 10 %, and Stop cuts a fetch in flight short.
func TestFollowerRunOnVirtualTime(t *testing.T) {
	seed := store.New()
	for i := 0; i < 40; i++ {
		seed.Insert(mkJob(fmt.Sprintf("seed-%03d", i)))
	}
	d, err := store.OpenDurable(t.TempDir(), seed, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	node := repl.NewLeader(d)
	var stalled atomic.Bool
	arrived, release := make(chan struct{}), make(chan struct{})
	srv := serveNode(t, func() *repl.Node {
		if stalled.CompareAndSwap(true, false) {
			close(arrived)
			<-release
		}
		return node
	})
	defer close(release) // before srv.Close, which waits for the handler

	clk := clock.NewManual(time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC))
	fst := store.New()
	f, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: srv.URL, Seed: 11}),
		Apply: func(p []byte) error {
			var j job.Job
			if err := json.Unmarshal(p, &j); err != nil {
				return err
			}
			return fst.Insert(&j)
		},
		Seed:  3,
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	go f.Run(context.Background())

	// The first round needs no tick; the loop then parks on its timer.
	clk.BlockUntil(1)
	if fst.Len() != 40 {
		t.Fatalf("first round applied %d jobs, want 40", fst.Len())
	}
	for i := 0; i < 15; i++ {
		if err := d.Insert(mkJob(fmt.Sprintf("tail-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// 250 ms ± 10 %: no delay is under 225 ms, none over 275 ms.
	clk.Advance(224 * time.Millisecond)
	if fst.Len() != 40 {
		t.Fatalf("a round ran %v after the last one: %d jobs", 224*time.Millisecond, fst.Len())
	}
	clk.Advance(51 * time.Millisecond)
	clk.BlockUntil(1)
	if fst.Len() != 55 {
		t.Fatalf("after one poll delay: %d jobs, want 55", fst.Len())
	}
	if st := f.Status(); st.State != repl.StateOK || st.AppliedSeq != d.CommittedSeq() || st.LastSyncAge != 0 {
		t.Fatalf("status after the tailing round = %+v", st)
	}

	// A round stuck on a leader that never answers: Stop must not wait
	// for it.
	stalled.Store(true)
	clk.Advance(275 * time.Millisecond)
	<-arrived
	f.Stop()
	f.Stop()
}

// The client backs off on its breaker's clock: after a 500, the second
// attempt goes out only once that clock crosses the backoff, however
// long the wall clock waits.
func TestClientBacksOffOnItsClock(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(wal.Manifest{Epoch: 1, CommittedSeq: 7})
	}))
	t.Cleanup(srv.Close)
	const backoff = 10 * time.Second
	clk := clock.NewManual(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
	cl := repl.NewClient(repl.ClientConfig{
		BaseURL: srv.URL,
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: backoff},
		Breaker: resilience.BreakerConfig{Clock: clk},
		Seed:    3,
	})
	type result struct {
		m   wal.Manifest
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := cl.Manifest(context.Background())
		done <- result{m, err}
	}()
	for deadline := time.Now().Add(2 * time.Second); hits.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first attempt never reached the leader")
		}
	}
	select {
	case r := <-done:
		t.Fatalf("Manifest returned (%v) with the backoff not yet elapsed on the client's clock", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d attempts before the clock moved, want 1", n)
	}
	clk.BlockUntil(1) // parked on the backoff
	clk.Advance(backoff)
	r := <-done
	if r.err != nil || r.m.CommittedSeq != 7 || hits.Load() != 2 {
		t.Fatalf("Manifest = %+v, %v after %d attempts; want seq 7 on the second", r.m, r.err, hits.Load())
	}
}

// A shared retry budget throttles the replication client's retries: a
// dead leader burns the bucket once, after which further requests fail
// fast with the original transport error still in the chain.
func TestClientRetriesRespectSharedBudget(t *testing.T) {
	budget := resilience.NewBudget(resilience.BudgetConfig{Tokens: 2, Ratio: 0.1})
	cl := repl.NewClient(repl.ClientConfig{
		BaseURL: "http://127.0.0.1:1",
		Seed:    3,
		Retry: resilience.Policy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1000},
		Budget:  budget,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Manifest(ctx); !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("first call: %v, want ErrBudgetExhausted after 2 budgeted retries", err)
	}
	// The bucket is dry: the next call gets its one free attempt and no
	// retries, so the budget denial surfaces again without sleeping.
	if _, err := cl.Manifest(ctx); !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("second call: %v, want ErrBudgetExhausted", err)
	}
	if got := budget.Retries(); got != 2 {
		t.Fatalf("budget admitted %d retries, want 2", got)
	}
}
