package replay_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/node"
	"mcbound/internal/replay"
	"mcbound/internal/simulate"
	"mcbound/internal/store"
)

// traceStore builds the same fixed-seed trace as the offline golden
// replay (simulate's goldenStore): two clean apps plus "mixapp" whose
// ground truth flips with submission-day parity, so the per-window F1
// series actually varies and a schedule-only match cannot pass.
func traceStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	for day := 0; day < 40; day++ {
		apps := []struct {
			name         string
			perfGF, bwGB float64
		}{
			{"memapp", 60, 60},
			{"compapp", 500, 10},
			{"mixapp", 60, 60},
		}
		if day%2 == 1 {
			apps[2].perfGF, apps[2].bwGB = 500, 10
		}
		for i := 0; i < 4; i++ {
			for _, app := range apps {
				submit := start.AddDate(0, 0, day).Add(time.Duration(i) * time.Hour)
				durSec := 1200.0
				err := st.Insert(&job.Job{
					ID:             fmt.Sprintf("g%05d", seq),
					User:           "u0001",
					Name:           app.name,
					Environment:    "gcc/12.2",
					CoresRequested: 48,
					NodesRequested: 1,
					NodesAllocated: 1,
					FreqRequested:  job.FreqNormal,
					SubmitTime:     submit,
					StartTime:      submit.Add(time.Minute),
					EndTime:        submit.Add(21 * time.Minute),
					Counters: job.PerfCounters{
						Perf2: app.perfGF * 1e9 * durSec,
						Perf4: app.bwGB * 1e9 * durSec * job.CoresPerCMG / job.CacheLineBytes,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				seq++
			}
		}
	}
	return st
}

// The (α, β) both sides run on, each over a fresh model registry so the
// versions read 1, 2, 3, ...
const goldenAlpha, goldenBeta = 10, 2

// instantClock is the wall clock with every timer already fired: pacing
// delays collapse to zero and a replay runs as fast as the target can
// absorb it. The speed in the status document is still the configured
// one — the simulated schedule is unchanged, only the wall clock is.
type instantClock struct{ clock.Wall }

func (c instantClock) NewTimer(time.Duration) *clock.Timer { return c.Wall.NewTimer(0) }

// liveTarget opens an empty-store MCBound node (node.Open, as the
// server binary assembles it) whose replay resource reads source, the
// manager's traffic looping through the node's full HTTP middleware
// stack in-process.
func liveTarget(t *testing.T, source *store.Store, clk clock.Clock) (*httptest.Server, *replay.Manager, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	trace, empty := filepath.Join(dir, "source.jsonl"), filepath.Join(dir, "empty.jsonl")
	if err := source.SaveFile(trace); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := node.Open(context.Background(), node.Config{
		Trace: empty, ReplaySource: trace,
		Model: "rf", Index: "auto", Fsync: "always", Alpha: goldenAlpha, Beta: goldenBeta,
		ModelDir: t.TempDir(),
		Clock:    clk,
		Logger:   log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return srv, n.Replay, n.Store
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func replayStatus(t *testing.T, base string) replay.Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/replay")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st replay.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

var goldenWindow = replay.Config{
	Start: time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC),
	End:   time.Date(2024, 1, 29, 0, 0, 0, 0, time.UTC),
	Speed: 100,
}

// TestReplayE2EGolden: a ×100 replay driven through the live HTTP path
// (batch inserts, classify and train requests against a
// server that starts empty) must reproduce the offline simulator's
// timeline byte for byte — same train triggers, same model versions,
// same window volumes, same per-day F1 to three decimals.
func TestReplayE2EGolden(t *testing.T) {
	source := traceStore(t)

	// Live side first, so the source trace is pristine when serialized.
	srv, mgr, serverStore := liveTarget(t, source, instantClock{})
	resp, body := postJSON(t, srv.URL+"/v1/replay", goldenWindow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start replay: status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := mgr.Wait(ctx); err != nil {
		t.Fatalf("replay did not finish: %v (status %+v)", err, mgr.Status())
	}
	st := mgr.Status()
	if st.State != replay.StateDone {
		t.Fatalf("replay state %q (error %q), want done", st.State, st.Error)
	}

	// Offline reference on the same trace, fresh model registry.
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.ModelDir = goldenAlpha, goldenBeta, t.TempDir()
	fw, err := core.New(cfg, fetch.StoreBackend{Store: source})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := (&simulate.Replay{Framework: fw}).Run(
		context.Background(), goldenWindow.Start, goldenWindow.End)
	if err != nil {
		t.Fatal(err)
	}

	var liveText, offlineText bytes.Buffer
	if err := mgr.Timeline().WriteText(&liveText); err != nil {
		t.Fatal(err)
	}
	if err := offline.WriteText(&offlineText); err != nil {
		t.Fatal(err)
	}
	if liveText.String() != offlineText.String() {
		gl := strings.Split(strings.TrimRight(liveText.String(), "\n"), "\n")
		ol := strings.Split(strings.TrimRight(offlineText.String(), "\n"), "\n")
		n := max(len(gl), len(ol))
		for i := 0; i < n; i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(ol) {
				w = ol[i]
			}
			if g != w {
				t.Errorf("timeline line %d:\n  live    %q\n  offline %q", i+1, g, w)
			}
		}
		t.Fatal("live replay timeline diverged from offline simulation")
	}

	// Record accounting: every trace record that completed before End
	// was replayed exactly once; none were rejected or duplicated.
	expected, _ := source.ExecutedPage(time.Time{}, goldenWindow.End, store.Pos{}, 0)
	if st.Records != len(expected) {
		t.Fatalf("replayed %d records, want %d", st.Records, len(expected))
	}
	if st.Rejected != 0 {
		t.Fatalf("%d records rejected", st.Rejected)
	}
	if serverStore.Len() != len(expected) {
		t.Fatalf("server store holds %d jobs, want %d", serverStore.Len(), len(expected))
	}
	if st.WindowsDone != st.WindowsTotal || st.WindowsDone == 0 {
		t.Fatalf("windows %d/%d, want all done", st.WindowsDone, st.WindowsTotal)
	}
}

// TestReplayE2EPauseResume: pausing freezes progress (no records move
// while paused), resuming completes the replay with exact record
// accounting — nothing duplicated, nothing dropped — and the lifecycle
// conflicts answer 409 through the HTTP surface.
func TestReplayE2EPauseResume(t *testing.T) {
	source := traceStore(t)
	srv, mgr, serverStore := liveTarget(t, source, clock.Wall{})

	warmup, _ := source.ExecutedPage(time.Time{}, goldenWindow.Start, store.Pos{}, 0)
	expected, _ := source.ExecutedPage(time.Time{}, goldenWindow.End, store.Pos{}, 0)

	cfg := goldenWindow
	cfg.Speed = 5e6 // 14 simulated days ≈ 240ms of pacing
	resp, body := postJSON(t, srv.URL+"/v1/replay", cfg)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start replay: status %d: %s", resp.StatusCode, body)
	}

	// A second start while active must conflict.
	resp, body = postJSON(t, srv.URL+"/v1/replay", cfg)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent start: status %d, want 409: %s", resp.StatusCode, body)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &eb); eb.Code != "replay_conflict" {
		t.Fatalf("concurrent start: code %q, want replay_conflict", eb.Code)
	}

	// Wait for the replay to get past warm-up, then pause mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for replayStatus(t, srv.URL).Records <= len(warmup) {
		if time.Now().After(deadline) {
			t.Fatalf("replay made no window progress: %+v", replayStatus(t, srv.URL))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, body = postJSON(t, srv.URL+"/v1/replay/pause", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: status %d: %s", resp.StatusCode, body)
	}

	// Let any in-flight step drain to its checkpoint, then verify the
	// job is actually frozen.
	time.Sleep(300 * time.Millisecond)
	before := replayStatus(t, srv.URL)
	if before.State != replay.StatePaused {
		t.Fatalf("state %q after pause, want paused", before.State)
	}
	time.Sleep(400 * time.Millisecond)
	after := replayStatus(t, srv.URL)
	if after.Records != before.Records || after.Trains != before.Trains || after.WindowsDone != before.WindowsDone {
		t.Fatalf("progress while paused: %+v -> %+v", before, after)
	}
	if before.Records >= len(expected) {
		t.Fatalf("replay finished before pause took effect (records=%d); speed up the trace", before.Records)
	}

	// healthz carries the paused replay's progress.
	var health struct {
		Replay map[string]any `json:"replay"`
	}
	hres, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hres.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if health.Replay["state"] != "paused" {
		t.Fatalf("healthz replay section %+v, want state paused", health.Replay)
	}

	if resp, body = postJSON(t, srv.URL+"/v1/replay/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := mgr.Wait(ctx); err != nil {
		t.Fatalf("replay did not finish after resume: %v (%+v)", err, mgr.Status())
	}

	final := mgr.Status()
	if final.State != replay.StateDone {
		t.Fatalf("final state %q (error %q), want done", final.State, final.Error)
	}
	// Exact accounting across the pause: nothing dropped, nothing
	// replayed twice (the store would reject or double-count dupes).
	if final.Records != len(expected) {
		t.Fatalf("replayed %d records across pause/resume, want exactly %d", final.Records, len(expected))
	}
	if serverStore.Len() != len(expected) {
		t.Fatalf("server store holds %d jobs, want exactly %d", serverStore.Len(), len(expected))
	}
	if final.Rejected != 0 {
		t.Fatalf("%d records rejected", final.Rejected)
	}

	// Verbs on a finished job conflict; DELETE clears it back to idle.
	if resp, body = postJSON(t, srv.URL+"/v1/replay/pause", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause after done: status %d, want 409: %s", resp.StatusCode, body)
	}
	if json.Unmarshal(body, &eb); eb.Code != "replay_not_active" {
		t.Fatalf("pause after done: code %q, want replay_not_active", eb.Code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/replay", nil)
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	if dres.StatusCode != http.StatusOK {
		t.Fatalf("delete finished replay: status %d", dres.StatusCode)
	}
	if st := replayStatus(t, srv.URL); st.State != replay.StateIdle {
		t.Fatalf("state %q after delete, want idle", st.State)
	}
}
