package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/job"
	"mcbound/internal/repl"
	"mcbound/internal/store"
	"mcbound/internal/wal"
)

// testConfig is a quiet node on the flag defaults that matter to Open.
func testConfig() Config {
	return Config{
		Model: "rf", Index: "auto", Alpha: 15, Beta: 1, Seed: 7, Fsync: "always",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

func traceJob(id string, day, hour int, membound bool) *job.Job {
	submit := time.Date(2024, 1, 1+day, hour, 0, 0, 0, time.UTC)
	perfGF, bwGB, name := 500.0, 10.0, "compapp"
	if membound {
		perfGF, bwGB, name = 60, 60, "memapp"
	}
	const durSec = 1200.0
	return &job.Job{
		ID: id, User: "u0001", Name: name, Environment: "gcc/12.2",
		CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1, FreqRequested: job.FreqNormal,
		SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(21 * time.Minute),
		Counters: job.PerfCounters{
			Perf2: perfGF * 1e9 * durSec,
			Perf4: bwGB * 1e9 * durSec * job.CoresPerCMG / job.CacheLineBytes,
		},
	}
}

// traceFile writes a 20-day, two-application trace the first train fits.
func traceFile(t *testing.T) string {
	t.Helper()
	st := store.New()
	for day := 0; day < 20; day++ {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("t%02d%d", day, i)
			if err := st.Insert(traceJob(id+"m", day, i, true), traceJob(id+"c", day, i, false)); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func openNode(t *testing.T, c Config) *Node {
	t.Helper()
	n, err := Open(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// call sends one request to host over tr and returns status and body.
func call(t *testing.T, tr *Transport, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// The two rows marked "parent accepted" are flag combinations the
// server booted under before Validate existed; the rest pin the checks
// that moved here from its run function.
func TestValidate(t *testing.T) {
	peers := "n1=http://h1:1,n2=http://h2:1,n3=http://h3:1"
	rows := []struct {
		name string
		edit func(*Config)
		want string // substring of the error; "" = valid
	}{
		{"trace leader", func(c *Config) { c.Trace = "t.jsonl" }, ""},
		{"durable elected leader", func(c *Config) { c.Trace, c.DataDir, c.NodeID, c.Peers = "t.jsonl", "d", "n1", peers }, ""},
		{"elected follower", func(c *Config) { c.Follow, c.DataDir, c.NodeID, c.Peers = "http://h1:1", "d", "n2", peers }, ""},
		{"plain follower without a data dir", func(c *Config) { c.Follow = "http://h1:1" }, ""},
		// Parent accepted: the election winner promoted to a leader with no
		// log, whose WAL surface answers 409 to the surviving follower.
		{"elected follower without a data dir", func(c *Config) { c.Follow, c.NodeID, c.Peers = "http://h1:1", "n2", peers }, "-peers with -follow requires -data-dir"},
		// Parent accepted: the seed stayed on the replica.
		{"follower with a trace seed", func(c *Config) { c.Follow, c.Trace = "http://h1:1", "t.jsonl" }, "-follow excludes -trace"},
		{"no source", func(c *Config) {}, "either -trace or -follow"},
		{"follow and promote", func(c *Config) { c.Follow, c.PromoteOnStart, c.DataDir = "http://h1:1", true, "d" }, "-follow and -promote-on-start"},
		{"promote without a data dir", func(c *Config) { c.Trace, c.PromoteOnStart = "t.jsonl", true }, "-promote-on-start requires -data-dir"},
		{"node id without peers", func(c *Config) { c.Trace, c.DataDir, c.NodeID = "t.jsonl", "d", "n1" }, "-node-id and -peers go together"},
		{"self missing from peers", func(c *Config) { c.Trace, c.DataDir, c.NodeID, c.Peers = "t.jsonl", "d", "n9", peers }, "bad -peers"},
		{"peers without a role", func(c *Config) { c.Trace, c.NodeID, c.Peers = "t.jsonl", "n1", peers }, "-peers requires a replication role"},
		{"fsync checked without a data dir", func(c *Config) { c.Trace, c.Fsync = "t.jsonl", "sometimes" }, "bad -fsync"},
		{"index checked under rf", func(c *Config) { c.Trace, c.Index = "t.jsonl", "maybe" }, "bad -index"},
	}
	for _, r := range rows {
		c := testConfig()
		r.edit(&c)
		err := c.Validate()
		switch {
		case r.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", r.name, err)
		case r.want != "" && (err == nil || !strings.Contains(err.Error(), r.want)):
			t.Errorf("%s: error %v, want one naming %q", r.name, err, r.want)
		}
	}
}

// The cron's fraction of the one jitter formula (clock.Jitter's tests
// cover the band): -retrain-every ± -retrain-jitter, 0 = fixed period.
func TestRetrainIntervalsFollowTheJitterFlag(t *testing.T) {
	next := retrainIntervals(Config{RetrainEvery: time.Hour, RetrainJitter: 0.25, Seed: 7})
	var lo, hi time.Duration = 24 * time.Hour, 0
	for i := 0; i < 200; i++ {
		d := next()
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 45*time.Minute || hi > 75*time.Minute || hi-lo < 25*time.Minute {
		t.Fatalf("-retrain-jitter 0.25 drew [%v, %v], want most of 1h ± 25%%", lo, hi)
	}
	fixed := retrainIntervals(Config{RetrainEvery: time.Hour, Seed: 7})
	for i := 0; i < 10; i++ {
		if d := fixed(); d != time.Hour {
			t.Fatalf("-retrain-jitter 0 drew %v, want exactly 1h", d)
		}
	}
}

// The cron retrains on every tick of the node's clock: two ticks of a
// Manual clock publish versions 2 and 3.
func TestCronRetrainsOnEveryTick(t *testing.T) {
	clk := clock.NewManual(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
	c := testConfig()
	// The registry numbers the versions.
	c.Trace, c.Clock, c.ModelDir = traceFile(t), clk, t.TempDir()
	c.RetrainEvery = time.Hour
	n := openNode(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)
	for want := 2; want <= 3; want++ {
		clk.BlockUntil(1) // the cron is parked on its next tick
		clk.Advance(time.Hour)
		clk.BlockUntil(1) // ...and parked again: the tick's retrain is done
		if _, version, _ := n.fw.ModelInfo(); version != want {
			t.Fatalf("model version %d after cron tick %d, want %d", version, want-1, want)
		}
	}
}

// POST /v1/train {} on a store with no completed job trains at the
// node's instant, so the empty window it names ends on the node's clock.
func TestTrainWithoutCompletedJobsNamesTheNodesInstant(t *testing.T) {
	queued := traceJob("queued", 0, 0, true)
	queued.StartTime, queued.EndTime = time.Time{}, time.Time{}
	st := store.New()
	c := testConfig()
	c.Trace, c.Clock = filepath.Join(t.TempDir(), "trace.jsonl"), clock.NewManual(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
	if err := errors.Join(st.Insert(queued), st.SaveFile(c.Trace)); err != nil {
		t.Fatal(err)
	}
	tr := NewTransport()
	tr.Handle("n", openNode(t, c).Handler())
	status, body := call(t, tr, http.MethodPost, "http://n/v1/train", struct{}{})
	if status == http.StatusOK || !strings.Contains(string(body), ", 2024-03-01 00:00:00 +0000 UTC)") {
		t.Fatalf("train on an empty store: status %d: %s; want an error naming the window [..., 2024-03-01 00:00:00)", status, body)
	}
}

func TestOpenClassifyClose(t *testing.T) {
	c := testConfig()
	c.Trace = traceFile(t)
	n := openNode(t, c)
	tr := NewTransport()
	tr.Handle("n", n.Handler())

	status, body := call(t, tr, http.MethodPost, "http://n/v1/classify", []*job.Job{
		{ID: "q1", User: "u0001", Name: "memapp", Environment: "gcc/12.2", CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqNormal},
	})
	var preds []struct {
		JobID string `json:"job_id"`
		Class string `json:"class"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &preds) != nil || len(preds) != 1 {
		t.Fatalf("classify: status %d: %s", status, body)
	}
	if preds[0].JobID != "q1" || preds[0].Class != job.MemoryBound.String() {
		t.Fatalf("classify answered %+v, want q1 memory-bound", preds[0])
	}
	if status, body = call(t, tr, http.MethodGet, "http://n/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz after the first train: status %d: %s", status, body)
	}
	if status, _ = call(t, tr, http.MethodGet, "http://elsewhere/healthz", nil); status != 0 {
		t.Fatalf("unregistered host answered %d, want a transport error", status)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A node's framework reads its store directly: no retrier or breaker
// sits between them, so /healthz has no breaker and /metrics no
// op="fetch" series, and a lookup miss is still the store's 404.
func TestFetchPathIsTheStores(t *testing.T) {
	c := testConfig()
	c.Trace = traceFile(t)
	tr := NewTransport()
	tr.Handle("n", openNode(t, c).Handler())

	status, body := call(t, tr, http.MethodGet, "http://n/healthz", nil)
	var health map[string]json.RawMessage
	if status != http.StatusOK || json.Unmarshal(body, &health) != nil {
		t.Fatalf("healthz: status %d: %s", status, body)
	}
	var keys []string
	for k := range health {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"degraded", "jobs", "staleness_seconds", "status", "trained"}; !slices.Equal(keys, want) {
		t.Errorf("healthz keys = %v, want %v", keys, want)
	}

	status, body = call(t, tr, http.MethodGet, "http://n/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", status, body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.Contains(line, `op="fetch"`) {
			t.Errorf("metrics has a fetch-layer series: %s", line)
		}
	}

	status, body = call(t, tr, http.MethodGet, "http://n/v1/classify/nope", nil)
	var env struct {
		Code string `json:"code"`
	}
	if status != http.StatusNotFound || json.Unmarshal(body, &env) != nil || env.Code != "not_found" {
		t.Errorf("classify of an unknown id: status %d: %s; want 404 not_found", status, body)
	}
}

// A follower started with -follow and no -peers has no elector, so
// nothing may move it off the leader it was given: a 421 whose Location
// names a live host is not followed, neither by Open's bootstrap sync
// nor by the polls after it.
func TestStaticFollowerIgnoresA421Location(t *testing.T) {
	var polled, lured atomic.Int32
	tr := NewTransport()
	tr.Handle("deposed", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polled.Add(1)
		w.Header().Set("Location", "http://lure"+r.URL.RequestURI())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		io.WriteString(w, `{"error":"not the leader","code":"not_leader"}`)
	}))
	tr.Handle("lure", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lured.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{}`)
	}))
	c := testConfig()
	c.Follow, c.HTTP = "http://deposed", &http.Client{Transport: tr}
	c.FollowPoll, c.FetchAttempts, c.FetchBackoff = 5*time.Millisecond, 2, time.Millisecond
	n := openNode(t, c) // the bootstrap sync fails, and Open carries on
	if got := lured.Load(); got != 0 {
		t.Fatalf("bootstrap sync sent %d requests to the 421's Location", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { n.Run(ctx); close(done) }()
	boot := polled.Load()
	waitFor(t, 10*time.Second, "three polls after the bootstrap", func() bool { return polled.Load() >= boot+3 })
	cancel()
	<-done
	if got := lured.Load(); got != 0 {
		t.Fatalf("the follower sent %d requests to the 421's Location", got)
	}
}

// A node reads a guarded request's budget on its own clock, and sets it
// there: on a Manual clock an hour ahead of the wall, X-Request-Timeout
// 2s is two seconds of that clock, so the request is served, not shed
// as doomed with an hour already gone.
func TestGuardedRequestOnAClockAheadOfTheWall(t *testing.T) {
	c := testConfig()
	c.Trace, c.Clock = traceFile(t), clock.NewManual(time.Now().Add(time.Hour))
	n := openNode(t, c)
	tr := NewTransport()
	tr.Handle("n", n.Handler())
	req, err := http.NewRequest(http.MethodGet, "http://n/v1/model", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(admission.TimeoutHeader, "2s")
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/model with a 2 s budget: status %d: %s", resp.StatusCode, body)
	}
	if s := n.adm.Stats(); s.ShedDoomed != 0 {
		t.Fatalf("%d requests shed as doomed, want 0", s.ShedDoomed)
	}
}

func TestRestartServesAckedInsertAndPromoteOnStartBumpsEpoch(t *testing.T) {
	c := testConfig()
	c.Trace, c.DataDir = traceFile(t), t.TempDir()
	n := openNode(t, c)
	tr := NewTransport()
	tr.Handle("n", n.Handler())
	if status, body := call(t, tr, http.MethodPost, "http://n/v1/jobs", []*job.Job{traceJob("acked", 21, 0, true)}); status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, body)
	}
	epoch := n.Repl.Status().Epoch
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// The durable state wins over the seed, and holds the acked insert.
	c.PromoteOnStart = true
	n = openNode(t, c)
	tr.Handle("n", n.Handler())
	if status, body := call(t, tr, http.MethodGet, "http://n/v1/classify/acked", nil); status != http.StatusOK {
		t.Fatalf("classify the acked insert after restart: status %d: %s", status, body)
	}
	if got := n.Repl.Status().Epoch; got != epoch+1 {
		t.Fatalf("epoch %d after -promote-on-start, want %d", got, epoch+1)
	}
}

// Three nodes elected over the in-memory transport, no sockets: the
// leader is stopped, a follower takes over unassisted with every acked
// insert, and closing it closes the durable store its promotion attached.
func TestElectedClusterFailoverOnInMemoryTransport(t *testing.T) {
	tr := NewTransport()
	ids := []string{"n1", "n2", "n3"}
	nodes := make([]*Node, len(ids))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, id := range ids {
		c := testConfig()
		c.NodeID, c.Peers = id, "n1=http://n1,n2=http://n2,n3=http://n3"
		c.DataDir = t.TempDir()
		c.HTTP = &http.Client{Transport: tr, Timeout: 500 * time.Millisecond}
		c.Seed = uint64(100 + i)
		c.HeartbeatEvery, c.LeaseTTL, c.ElectionTimeout, c.MaxMissed = 10*time.Millisecond, 100*time.Millisecond, 50*time.Millisecond, 2
		c.FollowPoll, c.FetchAttempts, c.FetchBackoff = 10*time.Millisecond, 2, 5*time.Millisecond
		if i == 0 {
			c.Trace = traceFile(t)
		} else {
			c.Follow = "http://n1"
		}
		nodes[i] = openNode(t, c)
		tr.Handle(id, nodes[i].Handler())
	}
	for _, n := range nodes {
		if n.Store.Len() != nodes[0].Store.Len() {
			t.Fatalf("bootstrap sync left a follower with %d jobs, leader has %d", n.Store.Len(), nodes[0].Store.Len())
		}
		go n.Run(ctx)
	}

	var acked []string
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("acked%02d", i)
		// A 503 lease_lost is the leader fencing itself over a late ack
		// round (tight timings under -race); the client retries.
		waitFor(t, 5*time.Second, "insert "+id+" acked", func() bool {
			status, _ := call(t, tr, http.MethodPost, "http://n1/v1/jobs", []*job.Job{traceJob(id, 21, i, i%2 == 0)})
			return status == http.StatusOK
		})
		acked = append(acked, id)
	}
	// Replication is asynchronous: a write acked by a leader that then
	// dies outright survives only once shipped, so let the tail land.
	committed := nodes[0].Repl.Durable().CommittedSeq()
	waitFor(t, 5*time.Second, "followers caught up", func() bool {
		return nodes[1].Repl.FollowerStatus().AppliedSeq >= committed && nodes[2].Repl.FollowerStatus().AppliedSeq >= committed
	})

	tr.Handle("n1", nil)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	var winner *Node
	waitFor(t, 10*time.Second, "unassisted failover", func() bool {
		for _, n := range nodes[1:] {
			if n.Elector.IsLeader() && n.Repl.Role() == repl.RoleLeader {
				winner = n
			}
		}
		return winner != nil
	})
	for _, id := range acked {
		if _, err := winner.Store.Get(id); err != nil {
			t.Fatalf("acked insert %s missing on the successor: %v", id, err)
		}
	}

	promoted := winner.Repl.Durable()
	if promoted == nil {
		t.Fatal("the successor leads without a durable store")
	}
	if err := promoted.Insert(traceJob("before-close", 22, 0, true)); err != nil {
		t.Fatalf("insert on the promoted store: %v", err)
	}
	if err := winner.Close(); err != nil {
		t.Fatal(err)
	}
	if err := promoted.Insert(traceJob("after-close", 22, 1, true)); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("insert after Close: %v, want wal.ErrClosed — Close left the promoted store open", err)
	}
}
