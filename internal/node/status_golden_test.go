package node

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcbound/internal/clock"
)

var updateStatus = flag.Bool("update-status", false, "rewrite testdata/status/*.golden from this build's documents")

// volatileKeys are the status fields that read a clock or a temporary
// path: an age that has started counting is folded to "(age)"
// (a negative one is the "never" marker and stays), an instant to
// "(instant)".
var volatileKeys = map[string]string{
	"staleness_seconds":      "(age)",
	"last_fsync_age_seconds": "(age)",
	"heartbeat_age_seconds":  "(age)",
	"last_seen_seconds":      "(age)",
	"last_sync_age_seconds":  "(age)",
	"renewed_unix_nano":      "(instant)",
}

func normalizeStatus(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if mark, ok := volatileKeys[k]; ok {
				if f, isNum := e.(float64); isNum && f >= 0 {
					x[k] = mark
					continue
				}
			}
			x[k] = normalizeStatus(e)
		}
	case []any:
		for i := range x {
			x[i] = normalizeStatus(x[i])
		}
	}
	return v
}

// checkStatusGolden compares the document at url — decoded generically,
// volatile values folded, re-encoded with sorted keys — with the file
// recorded at the parent of the PR that gave these documents a type.
func checkStatusGolden(t *testing.T, tr *Transport, name, url string, wantStatus int) {
	t.Helper()
	status, body := call(t, tr, http.MethodGet, url, nil)
	if status != wantStatus {
		t.Fatalf("%s: GET %s: status %d, want %d: %s", name, url, status, wantStatus, body)
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: %v: %s", name, err, body)
	}
	got, err := json.MarshalIndent(normalizeStatus(doc), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "status", name+".golden")
	if *updateStatus {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: GET %s decodes to\n%s\nwant the parent's\n%s", name, url, got, want)
	}
}

// The status documents are one type each since PR 23; every key and
// value they carried as hand-built maps is pinned here, node shape by
// node shape, against files recorded at the parent commit.
func TestStatusDocumentsMatchParentGolden(t *testing.T) {
	trace := traceFile(t)
	tr := NewTransport()
	hc := &http.Client{Transport: tr}

	plain := testConfig()
	plain.Trace = trace
	tr.Handle("plain", openNode(t, plain).Handler())
	checkStatusGolden(t, tr, "healthz_plain", "http://plain/healthz", http.StatusOK)

	leader := testConfig()
	leader.Trace, leader.DataDir = trace, t.TempDir()
	tr.Handle("leader", openNode(t, leader).Handler())
	checkStatusGolden(t, tr, "healthz_durable_leader", "http://leader/healthz", http.StatusOK)

	follower := testConfig()
	follower.Follow, follower.HTTP = "http://leader", hc
	tr.Handle("follower", openNode(t, follower).Handler())
	checkStatusGolden(t, tr, "healthz_follower", "http://follower/healthz", http.StatusOK)

	// An elected leader whose two peers never ack: one lease TTL after
	// boot its quorum is stale, and it says so on both documents.
	clk := clock.NewManual(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
	elected := testConfig()
	elected.Trace, elected.DataDir, elected.Clock, elected.HTTP = trace, t.TempDir(), clk, hc
	elected.NodeID, elected.Peers = "n1", "n1=http://n1,n2=http://n2,n3=http://n3"
	elected.LeaseTTL, elected.HeartbeatEvery = 3*time.Second, 500*time.Millisecond
	n1 := openNode(t, elected)
	tr.Handle("n1", n1.Handler())
	clk.Advance(4 * time.Second)
	checkStatusGolden(t, tr, "healthz_lease_lost", "http://n1/healthz", http.StatusServiceUnavailable)
	checkStatusGolden(t, tr, "lease_lease_lost", "http://n1/v1/lease", http.StatusOK)

	// Both model ages read the node's clock: exactly its instant minus
	// the model's training instant.
	_, _, trainedAt := n1.fw.ModelInfo()
	want := clk.Now().Sub(trainedAt).Seconds()
	_, body := call(t, tr, http.MethodGet, "http://n1/healthz", nil)
	var health struct {
		StalenessSeconds float64 `json:"staleness_seconds"`
	}
	if err := json.Unmarshal(body, &health); err != nil || health.StalenessSeconds != want {
		t.Errorf("/healthz staleness_seconds = %v (%v), want %v", health.StalenessSeconds, err, want)
	}
	_, body = call(t, tr, http.MethodGet, "http://n1/metrics", nil)
	gauge := "\nmcbound_model_staleness_seconds " + strconv.FormatFloat(want, 'g', -1, 64) + "\n"
	if !bytes.Contains(body, []byte(gauge)) {
		t.Errorf("/metrics has no line %q", strings.TrimSpace(gauge))
	}
}
