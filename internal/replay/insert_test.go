package replay_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/replay"
	"mcbound/internal/store"
)

// TestReplayHoldsBackInvalidRecord: POST /v1/jobs is all-or-nothing, so
// the manager holds a record the target would reject back itself — the
// replay still finishes, counts the record as rejected and stores every
// other one.
func TestReplayHoldsBackInvalidRecord(t *testing.T) {
	source := traceStore(t)
	end := goldenWindow.Start.Add(-time.Hour) // completed before Start: part of the warm-up
	if err := source.Insert(&job.Job{
		ID: "badfreq", User: "u0001", Name: "memapp", CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1,
		FreqRequested: 1234, SubmitTime: end.Add(-time.Hour), StartTime: end.Add(-30 * time.Minute), EndTime: end,
	}); err != nil {
		t.Fatal(err)
	}
	expected, _ := source.ExecutedPage(time.Time{}, goldenWindow.End, store.Pos{}, 0)

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
	if st.State != replay.StateDone || st.Rejected != 1 || st.Records != len(expected)-1 {
		t.Fatalf("status %+v, want done with 1 rejected and %d replayed", st, len(expected)-1)
	}
	if serverStore.Len() != len(expected)-1 {
		t.Fatalf("target stores %d jobs, want %d", serverStore.Len(), len(expected)-1)
	}
	if _, err := serverStore.Get("badfreq"); err == nil {
		t.Fatal("the invalid record reached the target's store")
	}
}

// TestReplayFailsOnInsert503: an insert the target does not answer 200
// ends the replay as failed — the chunk is not sent again (a retry after
// a lost answer could store it twice) and nothing is counted as replayed.
func TestReplayFailsOnInsert503(t *testing.T) {
	var inserts atomic.Int32
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.Method + " " + r.URL.Path {
		case "GET /v1/model":
			json.NewEncoder(w).Encode(map[string]int{"alpha_days": goldenAlpha, "beta_days": goldenBeta})
		case "POST /v1/jobs":
			inserts.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"queue full","code":"overloaded"}` + "\n"))
		default:
			t.Errorf("unexpected %s %s after a failed insert", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer target.Close()

	mgr := replay.NewManager(replay.Options{Source: traceStore(t), Client: target.Client(), BaseURL: target.URL})
	if _, err := mgr.Start(goldenWindow); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Wait(ctx); err != nil {
		t.Fatalf("replay did not finish: %v (status %+v)", err, mgr.Status())
	}
	st := mgr.Status()
	if st.State != replay.StateFailed || !strings.Contains(st.Error, "503 overloaded") {
		t.Fatalf("status %+v, want failed on the 503", st)
	}
	if st.Records != 0 || st.Trains != 0 || inserts.Load() != 1 {
		t.Fatalf("%d inserts sent, status %+v; want one insert, nothing replayed, no train", inserts.Load(), st)
	}
}
