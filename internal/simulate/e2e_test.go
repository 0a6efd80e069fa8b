package simulate_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/node"
	"mcbound/internal/online"
	"mcbound/internal/peer"
	"mcbound/internal/simulate"
)

// httpTarget is a running node seen only through its routes: the Target
// and the Feed of a replay over HTTP.
type httpTarget struct {
	hc       *http.Client
	base     string
	inserted int // records POST /v1/jobs acknowledged
}

func (h *httpTarget) call(ctx context.Context, method, path string, in, out any) error {
	return peer.JSON(ctx, h.hc, peer.Call{Method: method, URL: h.base + path, Limit: 16 << 20}, in, out)
}

// params reads the (α, β) the node retrains on.
func (h *httpTarget) params(ctx context.Context) (online.Params, error) {
	var info struct {
		AlphaDays int `json:"alpha_days"`
		BetaDays  int `json:"beta_days"`
	}
	err := h.call(ctx, http.MethodGet, "/v1/model", nil, &info)
	return online.Params{Alpha: info.AlphaDays, Beta: info.BetaDays}, err
}

func (h *httpTarget) Train(ctx context.Context, now time.Time) (*core.TrainReport, error) {
	var rep struct {
		FittedJobs   int `json:"fitted_jobs"`
		ModelVersion int `json:"model_version"`
	}
	in := map[string]string{"now": now.UTC().Format(time.RFC3339)}
	if err := h.call(ctx, http.MethodPost, "/v1/train", in, &rep); err != nil {
		return nil, err
	}
	return &core.TrainReport{FittedJobs: rep.FittedJobs, ModelVersion: rep.ModelVersion}, nil
}

func (h *httpTarget) ClassifyJobs(ctx context.Context, jobs []*job.Job) ([]core.Prediction, error) {
	var preds []core.Prediction
	if err := h.call(ctx, http.MethodPost, "/v1/classify", jobs, &preds); err != nil {
		return nil, err
	}
	for i := range preds {
		var err error
		if preds[i].Label, err = job.ParseLabel(preds[i].Class); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// Feed posts the records 500 a request: the route is all-or-nothing and
// a chunk is never sent twice, so any answer but 200 ends the replay.
func (h *httpTarget) Feed(ctx context.Context, executed []*job.Job) error {
	for len(executed) > 0 {
		n := min(500, len(executed))
		var ack struct {
			Inserted int `json:"inserted"`
		}
		if err := h.call(ctx, http.MethodPost, "/v1/jobs", executed[:n], &ack); err != nil {
			return err
		}
		h.inserted += ack.Inserted
		executed = executed[n:]
	}
	return nil
}

// The (α, β) both sides run on, each over a fresh model registry so the
// versions read 1, 2, 3, ...
const goldenAlpha, goldenBeta = 10, 2

var (
	goldenStart = time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
	goldenEnd   = time.Date(2024, 1, 29, 0, 0, 0, 0, time.UTC)
)

// TestReplayE2EGolden: a replay driven through the live HTTP path
// (batch inserts, classify and train requests against a node that
// node.Open assembled on an empty store) must reproduce the offline
// run's timeline byte for byte — same train triggers, same model
// versions, same window volumes, same per-day F1 to three decimals.
func TestReplayE2EGolden(t *testing.T) {
	source := simulate.GoldenStore(t)
	expected := len(source.ExecutedBetween(time.Time{}, goldenEnd))

	// The offline reference: a Framework on the trace itself, fresh model
	// registry. Its fetcher and characterizer are the trace side of both
	// replays.
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta, cfg.ModelDir = goldenAlpha, goldenBeta, t.TempDir()
	fw, err := core.New(cfg, fetch.StoreBackend{Store: source})
	if err != nil {
		t.Fatal(err)
	}

	// Live side first: the offline trains label the source records in
	// place, and a record goes over the wire as it stands.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := node.Open(context.Background(), node.Config{
		Trace: empty,
		Model: "rf", Index: "auto", Fsync: "always", Alpha: goldenAlpha, Beta: goldenBeta,
		ModelDir: t.TempDir(),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	target := &httpTarget{hc: srv.Client(), base: srv.URL}
	params, err := target.params(ctx)
	if err != nil {
		t.Fatal(err)
	}
	live, err := (&simulate.Replay{
		Target: target, Params: params, Trace: fw.Fetcher(), Truth: fw.Characterizer(), Feed: target.Feed,
	}).Run(ctx, goldenStart, goldenEnd)
	if err != nil {
		t.Fatalf("live replay did not finish: %v", err)
	}

	offline, err := simulate.Over(fw).Run(context.Background(), goldenStart, goldenEnd)
	if err != nil {
		t.Fatal(err)
	}

	var liveText, offlineText bytes.Buffer
	if err := live.WriteText(&liveText); err != nil {
		t.Fatal(err)
	}
	if err := offline.WriteText(&offlineText); err != nil {
		t.Fatal(err)
	}
	if liveText.String() != offlineText.String() {
		t.Fatalf("live replay timeline diverged from offline simulation:\nlive\n%s\noffline\n%s", &liveText, &offlineText)
	}

	// Record accounting: every trace record that completed before End
	// was inserted exactly once; none were rejected or duplicated.
	if expected == 0 || target.inserted != expected {
		t.Fatalf("inserted %d records, want %d", target.inserted, expected)
	}
	if n.Store.Len() != expected {
		t.Fatalf("server store holds %d jobs, want %d", n.Store.Len(), expected)
	}
	if sum := live.Summary(); sum.Inferences == 0 || sum.Inferences != sum.Trainings {
		t.Fatalf("%d windows walked, %d trained", sum.Inferences, sum.Trainings)
	}
}
