package fixture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"mcbound/internal/core"
)

func classifyByID(t *testing.T, hc *http.Client, base, id string) (class string, backend string) {
	t.Helper()
	resp, err := hc.Get(base + "/v1/classify/" + id)
	if err != nil {
		t.Fatalf("GET %s/v1/classify/%s: %v", base, id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/classify/%s: status %d: %s", base, id, resp.StatusCode, body)
	}
	var p core.Prediction
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	return p.Class, resp.Header.Get("X-MCBound-Backend")
}

// The cluster comes up, leader and follower answer the whole held-out
// set identically (directly and through the router, which must prefer
// the follower for reads), an insert through the router reaches the
// follower, and Close leaves no goroutine behind.
func TestClusterUpDownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	f, err := Build(Options{
		Scale: 1, Seed: 7, Models: []core.ModelKind{core.ModelRF, core.ModelKNN},
		IndexOn: true, Cluster: true, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}

	if got := f.Node(core.ModelKNN).FW.IndexInfo(); !got.Enabled {
		t.Errorf("IndexOn did not build an index at s1: %+v", got)
	}
	if f.Primary().Model() == nil || f.Follower.Model() == nil {
		t.Fatal("nodes did not capture their served classifier")
	}
	for _, j := range f.Trace.Held {
		lead, _ := classifyByID(t, hc, f.Primary().URL, j.ID)
		foll, _ := classifyByID(t, hc, f.Follower.URL, j.ID)
		routed, backend := classifyByID(t, hc, f.RouterURL, j.ID)
		if lead != foll || lead != routed {
			t.Fatalf("job %s: leader %q, follower %q, routed %q", j.ID, lead, foll, routed)
		}
		if backend != "n2" {
			t.Fatalf("job %s: routed read served by %q, want the follower n2", j.ID, backend)
		}
	}

	// A routed write lands on the leader and is tailed onto the follower.
	extra := *f.Trace.Held[0]
	extra.ID = "fixture-extra"
	body, _ := json.Marshal([]any{extra})
	resp, err := hc.Post(f.RouterURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed insert: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !f.Drained() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never drained: %d vs %d jobs", f.Follower.Store.Len(), f.Primary().Store.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := f.Follower.Store.Get("fixture-extra"); err != nil {
		t.Fatalf("acked insert missing on the follower: %v", err)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr.CloseIdleConnections()

	// Connection goroutines unwind asynchronously after Close; poll.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTraceIsDeterministicAndHeldOutIsLabelled(t *testing.T) {
	a, err := NewTrace(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrace(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Held) != len(b.Held) {
		t.Fatalf("same seed, different trace: %d/%d vs %d/%d jobs/held", len(a.Jobs), len(a.Held), len(b.Jobs), len(b.Held))
	}
	for i, j := range a.Held {
		if j.ID != b.Held[i].ID || j.TrueLabel != b.Held[i].TrueLabel {
			t.Fatalf("held-out job %d differs between identical seeds", i)
		}
		if j.SubmitTime.Before(TrainAt) {
			t.Fatalf("held-out job %s submitted %v, inside the training window", j.ID, j.SubmitTime)
		}
		if s := Submission(j); !s.EndTime.IsZero() || s.Counters.Perf2 != 0 || s.TrueLabel != 0 {
			t.Fatalf("Submission(%s) leaks execution data: %+v", j.ID, s)
		}
	}
	c, err := NewTrace(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(len(c.Jobs), c.Jobs[0].Name) == fmt.Sprint(len(a.Jobs), a.Jobs[0].Name) {
		t.Error("different seeds produced the same trace head")
	}
}
