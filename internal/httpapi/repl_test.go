package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/job"
	"mcbound/internal/repl"
	"mcbound/internal/store"
	"mcbound/internal/wal"
)

// replPair spins up a leader API with a real durable store and a
// follower API tailing it over HTTP — the two-process quickstart from
// the README, compressed into one test.
type replPair struct {
	leaderSrv   *httptest.Server
	followerSrv *httptest.Server
	leaderDur   *store.Durable
	follower    *repl.Follower
	followerSt  *store.Store
}

func newReplPair(t *testing.T) *replPair {
	t.Helper()
	p := &replPair{}

	lst := seedStore(t)
	var err error
	p.leaderDur, err = store.OpenDurable(t.TempDir(), lst, store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.leaderDur.Close() })
	leaderNode := repl.NewLeader(p.leaderDur)
	p.leaderSrv = httptest.NewServer(newAPI(t, lst, nil, true, Options{
		Durable: p.leaderDur,
		Repl:    leaderNode,
	}))
	t.Cleanup(p.leaderSrv.Close)

	p.followerSt = store.New()
	p.follower, err = repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: p.leaderSrv.URL}),
		Apply: func(payload []byte) error {
			var j job.Job
			if err := json.Unmarshal(payload, &j); err != nil {
				return err
			}
			return p.followerSt.Insert(&j)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.follower.SyncNow(ctx); err != nil {
		t.Fatalf("bootstrap sync: %v", err)
	}
	followerNode := repl.NewFollowerNode(p.follower, p.leaderSrv.URL, repl.PromotePlan{
		Store: p.followerSt,
	})
	p.followerSrv = httptest.NewServer(newAPI(t, p.followerSt, nil, true, Options{
		Repl: followerNode,
	}))
	t.Cleanup(p.followerSrv.Close)
	return p
}

func mustGet(t *testing.T, url string) io.ReadCloser {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s status = %d", url, resp.StatusCode)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp.Body
}

func TestReplManifestRoute(t *testing.T) {
	p := newReplPair(t)
	resp, err := http.Get(p.leaderSrv.URL + "/v1/wal/segments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(repl.EpochHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", repl.EpochHeader, got)
	}
	var m wal.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 {
		t.Fatalf("manifest epoch = %d", m.Epoch)
	}
	if len(m.Snapshots) == 0 {
		t.Fatal("manifest lists no snapshots after OpenDurable seeding")
	}
	if m.CommittedSeq != p.leaderDur.CommittedSeq() {
		t.Fatalf("manifest committed_seq = %d, want %d", m.CommittedSeq, p.leaderDur.CommittedSeq())
	}
}

func TestReplChunkRoute(t *testing.T) {
	p := newReplPair(t)
	m, err := repl.NewClient(repl.ClientConfig{BaseURL: p.leaderSrv.URL}).Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	name := m.Snapshots[len(m.Snapshots)-1].Name

	// The ranged read must be byte-identical to the matching slice of a
	// full read, with the epoch stamped on both.
	full, _ := io.ReadAll(mustGet(t, p.leaderSrv.URL+"/v1/wal/segments/"+name))
	if len(full) == 0 {
		t.Fatal("full chunk read returned nothing")
	}
	resp, err := http.Get(p.leaderSrv.URL + "/v1/wal/segments/" + name + "?offset=2&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk status = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, full[2:7]) {
		t.Fatalf("ranged chunk = %q, want %q", body, full[2:7])
	}
	if got := resp.Header.Get(repl.EpochHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", repl.EpochHeader, got)
	}

	// Foreign names 404 with the typed code, negative offsets 400.
	for path, want := range map[string]int{
		"/v1/wal/segments/epoch":                  http.StatusNotFound,
		"/v1/wal/segments/" + name + "?offset=-1": http.StatusBadRequest,
	} {
		resp, err := http.Get(p.leaderSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestFollowerRejectsWritesWithNotLeader(t *testing.T) {
	p := newReplPair(t)
	body := `[{"id":"w1","name":"x","submit":"2024-03-01T00:00:00Z"}]`
	resp, err := http.Post(p.followerSrv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower insert status = %d, want 421", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != p.leaderSrv.URL+"/v1/jobs" {
		t.Fatalf("Location = %q, want leader URL", loc)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "not_leader" {
		t.Fatalf("error code = %q, want not_leader", e.Code)
	}

	// Reads keep working on the follower replica, answered from its own
	// replicated store and model.
	if code := getJSON(t, p.followerSrv.URL+"/v1/classify/s0000", nil); code != http.StatusOK {
		t.Fatalf("follower read status = %d", code)
	}
	req := []map[string]any{{
		"id": "c1", "name": "memapp", "user": "u0001", "env": "gcc/12.2",
		"cores_req": 48, "nodes_req": 1, "freq_req": 2200,
		"submit": "2024-03-01T00:00:00Z",
	}}
	b, _ := json.Marshal(req)
	cresp, err := http.Post(p.followerSrv.URL+"/v1/classify", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("follower classify status = %d", cresp.StatusCode)
	}
}

func TestPromoteRoute(t *testing.T) {
	p := newReplPair(t)

	// Promoting the leader is a typed 409.
	resp, err := http.Post(p.leaderSrv.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote-on-leader status = %d, want 409", resp.StatusCode)
	}

	// Promoting the follower flips its role and unfences writes.
	resp, err = http.Post(p.followerSrv.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Role != "leader" || out.Epoch < 2 {
		t.Fatalf("promote = %d %+v, want 200 leader epoch>=2", resp.StatusCode, out)
	}

	body := `[{"id":"after-promote","name":"x","user":"u1","cores_req":4,"nodes_req":1,"freq_req":2000,"submit":"2024-03-01T00:00:00Z"}]`
	wresp, err := http.Post(p.followerSrv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("post-promote insert status = %d: %s", wresp.StatusCode, wb)
	}
	if _, err := p.followerSt.Get("after-promote"); err != nil {
		t.Fatalf("post-promote insert not applied: %v", err)
	}
}

func TestFollowerHealthAndMetrics(t *testing.T) {
	p := newReplPair(t)

	var h struct {
		Status      string `json:"status"`
		Replication *struct {
			Role     string               `json:"role"`
			Leader   string               `json:"leader"`
			Follower *repl.FollowerStatus `json:"follower"`
		} `json:"replication"`
	}
	if code := getJSON(t, p.followerSrv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("follower healthz status = %d", code)
	}
	if h.Status != "ok" {
		t.Fatalf("follower status = %q", h.Status)
	}
	if h.Replication == nil || h.Replication.Role != "follower" {
		t.Fatalf("replication section = %+v", h.Replication)
	}
	if h.Replication.Leader != p.leaderSrv.URL {
		t.Fatalf("advertised leader = %q", h.Replication.Leader)
	}
	if h.Replication.Follower == nil || h.Replication.Follower.State != repl.StateOK {
		t.Fatalf("follower state = %+v", h.Replication.Follower)
	}

	// The leader's healthz carries its role too.
	var lh struct {
		Replication *struct {
			Role  string `json:"role"`
			Epoch uint64 `json:"epoch"`
		} `json:"replication"`
	}
	if code := getJSON(t, p.leaderSrv.URL+"/healthz", &lh); code != http.StatusOK {
		t.Fatal("leader healthz not ok")
	}
	if lh.Replication == nil || lh.Replication.Role != "leader" || lh.Replication.Epoch != 1 {
		t.Fatalf("leader replication section = %+v", lh.Replication)
	}

	for _, tc := range []struct {
		srv  *httptest.Server
		want []string
	}{
		{p.followerSrv, []string{
			"mcbound_repl_is_leader 0",
			"mcbound_repl_lag_seconds",
			"mcbound_repl_applied_seq",
			"mcbound_repl_connected 1",
			"mcbound_repl_resyncs_total",
		}},
		{p.leaderSrv, []string{
			"mcbound_repl_is_leader 1",
			"mcbound_repl_epoch 1",
			"mcbound_wal_appends_total",
		}},
	} {
		resp, err := http.Get(tc.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range tc.want {
			if !strings.Contains(string(text), want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
}

// TestFollowerHealthLagging exercises the 503 path: a follower whose
// last successful sync is older than MaxLag reports "lagging" on
// /healthz so a load balancer can eject it from rotation.
func TestFollowerHealthLagging(t *testing.T) {
	// A leader stub that promises records it never serves keeps the
	// follower permanently behind.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal/segments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(repl.EpochHeader, "1")
		json.NewEncoder(w).Encode(wal.Manifest{Epoch: 1, CommittedSeq: 10})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	f, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{BaseURL: stub.URL}),
		Apply:  func([]byte) error { return nil },
		MaxLag: 5 * time.Second,
		Clock:  clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	fst := store.New()
	node := repl.NewFollowerNode(f, stub.URL, repl.PromotePlan{Store: fst})
	srv := httptest.NewServer(newAPI(t, seedStore(t), nil, true, Options{Repl: node}))
	defer srv.Close()

	if err := f.SyncNow(context.Background()); err != nil {
		t.Fatalf("sync against stub: %v", err)
	}
	// 30 seconds later a round still succeeds (the leader answers) but
	// applies nothing: recent contact, 10 records behind, MaxLag blown —
	// that is "lagging", not "disconnected".
	clk.Advance(30 * time.Second)
	if err := f.SyncNow(context.Background()); err != nil {
		t.Fatalf("second sync against stub: %v", err)
	}

	var h struct {
		Status      string `json:"status"`
		Replication struct {
			Follower *repl.FollowerStatus `json:"follower"`
		} `json:"replication"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("lagging follower healthz status = %d, want 503", code)
	}
	if h.Status != repl.StateLagging {
		t.Fatalf("status = %q, want lagging", h.Status)
	}
	if h.Replication.Follower.LagRecords != 10 {
		t.Fatalf("lag_records = %d, want 10", h.Replication.Follower.LagRecords)
	}
}
