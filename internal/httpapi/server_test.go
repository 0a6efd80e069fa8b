package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/online"
	"mcbound/internal/peer"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
)

func seedStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		submit := start.Add(time.Duration(i) * 4 * time.Hour)
		name, perfGF, bwGB := "memapp", 50.0, 50.0
		if i%2 == 1 {
			name, perfGF, bwGB = "compapp", 300.0, 5.0
		}
		durSec := 1800.0
		if err := st.Insert(&job.Job{
			ID:             fmt.Sprintf("s%04d", i),
			User:           "u0001",
			Name:           name,
			Environment:    "gcc/12.2",
			CoresRequested: 48,
			NodesRequested: 1,
			NodesAllocated: 1,
			FreqRequested:  job.FreqBoost,
			SubmitTime:     submit,
			StartTime:      submit.Add(time.Minute),
			EndTime:        submit.Add(31 * time.Minute),
			Counters: job.PerfCounters{
				Perf2: perfGF * 1e9 * durSec,
				Perf4: bwGB * 1e9 * durSec * job.CoresPerCMG / job.CacheLineBytes,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func newAPI(t *testing.T, st *store.Store, backend fetch.Backend, train bool, opts Options) *Server {
	t.Helper()
	if backend == nil {
		backend = fetch.StoreBackend{Store: st}
	}
	fw, err := core.New(core.DefaultConfig(), backend)
	if err != nil {
		t.Fatal(err)
	}
	if train {
		if _, err := fw.Train(context.Background(), time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)); err != nil {
			t.Fatal(err)
		}
	}
	return New(fw, st, log.New(io.Discard, "", 0), opts)
}

func testServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st := seedStore(t)
	srv := httptest.NewServer(newAPI(t, st, nil, true, Options{}))
	t.Cleanup(srv.Close)
	return srv, st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// envelope mirrors cursorEnvelope for decoding in tests.
type envelope struct {
	Items      []map[string]any `json:"items"`
	NextCursor string           `json:"next_cursor"`
	HasMore    bool             `json:"has_more"`
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	var body map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" || body["trained"] != true {
		t.Errorf("health = %v", body)
	}
}

func TestModelInfo(t *testing.T) {
	srv, _ := testServer(t)
	var body map[string]any
	if code := getJSON(t, srv.URL+"/v1/model", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["model"] != "rf" || body["alpha_days"] != float64(15) {
		t.Errorf("model info = %v", body)
	}
}

func TestRequestIDHeader(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no X-Request-Id on response")
	}

	// An upstream ID round-trips.
	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "load-balancer-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "load-balancer-7" {
		t.Errorf("request ID not propagated: %q", got)
	}
}

func TestClassifyByID(t *testing.T) {
	srv, _ := testServer(t)
	var pred struct {
		JobID string `json:"job_id"`
		Class string `json:"class"`
	}
	if code := getJSON(t, srv.URL+"/v1/classify/s0000", &pred); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if pred.JobID != "s0000" || pred.Class != "memory-bound" {
		t.Errorf("pred = %+v", pred)
	}
	var e peer.ErrorBody
	if code := getJSON(t, srv.URL+"/v1/classify/nope", &e); code != http.StatusNotFound {
		t.Errorf("missing job status = %d", code)
	}
	if e.Code != "not_found" {
		t.Errorf("missing job code = %q, want not_found", e.Code)
	}
}

func TestClassifyRangeEnvelope(t *testing.T) {
	srv, _ := testServer(t)
	u := srv.URL + "/v1/classify?start=2024-01-10T00:00:00Z&end=2024-01-12T00:00:00Z"
	var env envelope
	if code := getJSON(t, u, &env); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(env.Items) != 12 || env.HasMore || env.NextCursor != "" { // 2 days * 6 jobs/day
		t.Errorf("items=%d has_more=%v next_cursor=%q, want the whole 12-job range in one final page",
			len(env.Items), env.HasMore, env.NextCursor)
	}
	// Missing parameters → 400 bad_request.
	var e peer.ErrorBody
	if code := getJSON(t, srv.URL+"/v1/classify?start=2024-01-10T00:00:00Z", &e); code != http.StatusBadRequest {
		t.Errorf("missing end status = %d", code)
	}
	if e.Code != "bad_request" {
		t.Errorf("missing end code = %q", e.Code)
	}
	// Reversed range → 400.
	u = srv.URL + "/v1/classify?start=2024-01-12T00:00:00Z&end=2024-01-10T00:00:00Z"
	if code := getJSON(t, u, nil); code != http.StatusBadRequest {
		t.Errorf("reversed range status = %d", code)
	}
}

func TestClassifyPostedJobs(t *testing.T) {
	srv, _ := testServer(t)
	jobs := []*job.Job{{
		ID: "new1", User: "u0001", Name: "memapp", Environment: "gcc/12.2",
		CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqBoost,
		SubmitTime: time.Now().UTC(),
	}}
	payload, _ := json.Marshal(jobs)
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var preds []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&preds); err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0]["class"] != "memory-bound" {
		t.Errorf("preds = %v", preds)
	}
}

func TestNotTrainedReturns503(t *testing.T) {
	st := seedStore(t)
	srv := httptest.NewServer(newAPI(t, st, nil, false, Options{}))
	defer srv.Close()
	var e peer.ErrorBody
	if code := getJSON(t, srv.URL+"/v1/classify/s0000", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if e.Code != "not_trained" {
		t.Errorf("code = %q, want not_trained", e.Code)
	}
}

func TestTrainEndpoint(t *testing.T) {
	// θ-subsampled, so the report's two row counts differ.
	st := seedStore(t)
	cfg := core.DefaultConfig()
	cfg.Theta, cfg.ThetaMode = 16, online.ThetaLatest
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(fw, st, log.New(io.Discard, "", 0), Options{}))
	defer srv.Close()
	body, _ := json.Marshal(map[string]string{"now": "2024-01-20T00:00:00Z"})
	resp, err := http.Post(srv.URL+"/v1/train", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rep map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if labeled, fitted := rep["labeled_jobs"], rep["fitted_jobs"]; fitted != float64(16) || labeled.(float64) <= 16 {
		t.Errorf("train report = %v, want fitted_jobs 16 of more labeled_jobs", rep)
	}
	// Bad timestamp → 400 bad_request.
	resp2, err := http.Post(srv.URL+"/v1/train", "application/json",
		bytes.NewReader([]byte(`{"now":"yesterday"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var e peer.ErrorBody
	json.NewDecoder(resp2.Body).Decode(&e)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Errorf("bad now: status %d code %q", resp2.StatusCode, e.Code)
	}
}

// TestTrainIndexOptions drives the index switch end to end over HTTP:
// an invalid mode is a 400, and a train with {"index":"on"} publishes a
// KNN model whose /v1/model info reports the IVF structure.
func TestTrainIndexOptions(t *testing.T) {
	st := seedStore(t)
	cfg := core.DefaultConfig()
	cfg.Model = core.ModelKNN
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(fw, st, log.New(io.Discard, "", 0), Options{}))
	defer srv.Close()

	// Invalid mode → 400 before any training runs.
	resp, err := http.Post(srv.URL+"/v1/train", "application/json",
		bytes.NewReader([]byte(`{"index":"bogus"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var e peer.ErrorBody
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("bad index mode: status %d code %q", resp.StatusCode, e.Code)
	}

	body, _ := json.Marshal(map[string]any{
		"now": "2024-01-20T00:00:00Z", "index": "on", "nprobe": 1,
	})
	resp, err = http.Post(srv.URL+"/v1/train", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train status %d", resp.StatusCode)
	}

	var info struct {
		Model string `json:"model"`
		Index struct {
			Enabled  bool   `json:"enabled"`
			Kind     string `json:"kind"`
			Clusters int    `json:"clusters"`
			NProbe   int    `json:"nprobe"`
		} `json:"index"`
	}
	if code := getJSON(t, srv.URL+"/v1/model", &info); code != http.StatusOK {
		t.Fatalf("model status %d", code)
	}
	if info.Model != "knn" || !info.Index.Enabled || info.Index.Kind != "ivf" ||
		info.Index.Clusters < 1 || info.Index.NProbe < 1 {
		t.Errorf("model info = %+v", info)
	}
}

// TestNProbeReachesModelsOnlyThroughTrains: the nprobe of POST
// /v1/train is an option of the models trains build, never a change to
// the one served. A request whose train fails leaves /v1/model as it
// was, width and version, and the served model stays its saved file of
// that version; the next train that succeeds serves the width, and a
// second framework restoring the model directory reads it back.
func TestNProbeReachesModelsOnlyThroughTrains(t *testing.T) {
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		submit := start.Add(time.Duration(i) * 4 * time.Hour)
		perfGF, bwGB := 50.0, 50.0
		if i%2 == 1 {
			perfGF, bwGB = 300, 5
		}
		if err := st.Insert(&job.Job{
			ID: fmt.Sprintf("n%04d", i), User: "u0001", Name: fmt.Sprintf("app%02d", i%40), Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1, FreqRequested: job.FreqBoost,
			SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(31 * time.Minute),
			Counters: job.PerfCounters{
				Perf2: perfGF * 1e9 * 1800,
				Perf4: bwGB * 1e9 * 1800 * job.CoresPerCMG / job.CacheLineBytes,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Model = core.ModelKNN
	cfg.ModelDir = t.TempDir()
	cfg.KNN.Index = knn.IndexConfig{Mode: knn.IndexOn, NClusters: 8, NProbe: 1, Seed: 1}
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(fw, st, log.New(io.Discard, "", 0), Options{}))
	defer srv.Close()

	train := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/train", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// served is /v1/model's version and width; saved is what a second
	// framework's LoadLatest over the same directory restores.
	served := func() (version, nprobe int) {
		t.Helper()
		var info struct {
			Version int          `json:"version"`
			Index   ml.IndexInfo `json:"index"`
		}
		if code := getJSON(t, srv.URL+"/v1/model", &info); code != http.StatusOK {
			t.Fatalf("model status %d", code)
		}
		return info.Version, info.Index.NProbe
	}
	saved := func() (version, nprobe int) {
		t.Helper()
		follower, err := core.New(cfg, fetch.StoreBackend{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := follower.LoadLatest()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Version, follower.IndexInfo().NProbe
	}

	const now = `"now": "2024-01-20T00:00:00Z"`
	if code := train("{" + now + "}"); code != http.StatusOK {
		t.Fatalf("first train: status %d", code)
	}
	v1, np1 := served()
	if np1 != 1 {
		t.Fatalf("first model probes %d cells, want the configured 1", np1)
	}

	// No job ran in 2019: the train fails, and nothing served changes.
	const n = 3
	if code := train(fmt.Sprintf(`{"now": "2020-01-01T00:00:00Z", "nprobe": %d}`, n)); code == http.StatusOK {
		t.Fatal("a train over an empty window succeeded")
	}
	if v, np := served(); v != v1 || np != np1 {
		t.Fatalf("after a failed train /v1/model serves v%d at nprobe %d, want v%d at %d", v, np, v1, np1)
	}
	if v, np := saved(); v != v1 || np != np1 {
		t.Fatalf("LoadLatest restores v%d at nprobe %d, /v1/model serves v%d at %d", v, np, v1, np1)
	}

	// The override stays for the next train.
	if code := train("{" + now + "}"); code != http.StatusOK {
		t.Fatalf("train after the override: status %d", code)
	}
	v2, np2 := served()
	if v2 <= v1 || np2 != n {
		t.Fatalf("next train serves v%d at nprobe %d, want a version after v%d at %d", v2, np2, v1, n)
	}
	if v, np := saved(); v != v2 || np != n {
		t.Fatalf("LoadLatest restores v%d at nprobe %d, want v%d at %d", v, np, v2, n)
	}
}

func TestInsertEndpoint(t *testing.T) {
	srv, st := testServer(t)
	before := st.Len()
	submit := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	jobs := []*job.Job{{
		ID: "ins1", User: "u0002", Name: "newapp", CoresRequested: 48,
		NodesRequested: 1, NodesAllocated: 1, FreqRequested: job.FreqNormal,
		SubmitTime: submit, StartTime: submit.Add(time.Minute),
		EndTime: submit.Add(time.Hour),
	}}
	payload, _ := json.Marshal(jobs)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.Len() != before+1 {
		t.Errorf("store len %d, want %d", st.Len(), before+1)
	}
}

func TestInsertAtomicRejection(t *testing.T) {
	srv, st := testServer(t)
	before := st.Len()
	submit := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id string) *job.Job {
		return &job.Job{
			ID: id, User: "u0002", Name: "app", CoresRequested: 48,
			NodesRequested: 1, FreqRequested: job.FreqNormal, SubmitTime: submit,
		}
	}
	batch := []*job.Job{mk("ok0"), mk("ok1"), {ID: "bad2"}, mk("ok3")}
	payload, _ := json.Marshal(batch)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e peer.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "invalid_job" {
		t.Errorf("code = %q, want invalid_job", e.Code)
	}
	if e.Index == nil || *e.Index != 2 {
		t.Errorf("index = %v, want 2", e.Index)
	}
	// Atomic: the valid records before the bad one were NOT inserted.
	if st.Len() != before {
		t.Errorf("store len %d, want %d (batch must be rejected whole)", st.Len(), before)
	}
}

// TestBodyCap: a body past -max-body-bytes is 413 body_too_large on both
// batch endpoints, whether its length was declared (the buffer is sized
// from Content-Length) or not (chunked: the buffer grows until the cap
// cuts the read off). The MaxBytesError has to survive the bad-request
// wrap for the mapping to hold.
func TestBodyCap(t *testing.T) {
	st := seedStore(t)
	srv := httptest.NewServer(newAPI(t, st, nil, true, Options{MaxBodyBytes: 256}))
	defer srv.Close()
	// A syntactically valid batch well past the cap, so the body is read
	// until MaxBytesReader cuts it off.
	submit := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	var batch []*job.Job
	for i := 0; i < 50; i++ {
		batch = append(batch, &job.Job{
			ID: fmt.Sprintf("big%04d", i), User: "u0002", Name: "app",
			CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqNormal,
			SubmitTime: submit,
		})
	}
	big, _ := json.Marshal(batch)
	if len(big) <= 256 {
		t.Fatalf("test payload too small: %d bytes", len(big))
	}
	for _, path := range []string{"/v1/jobs", "/v1/classify"} {
		for _, chunked := range []bool{false, true} {
			var body io.Reader = bytes.NewReader(big)
			if chunked {
				body = io.MultiReader(body) // not a type net/http knows the length of
			}
			resp, err := http.Post(srv.URL+path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			var e peer.ErrorBody
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != "body_too_large" {
				t.Errorf("%s chunked=%v: status %d code %q, want 413 body_too_large", path, chunked, resp.StatusCode, e.Code)
			}
			if want := "bad request: bad jobs payload: http: request body too large"; e.Error != want {
				t.Errorf("%s chunked=%v: message %q, want %q", path, chunked, e.Error, want)
			}
		}
	}
}

// A train that names no instant — an empty body or one without "now" —
// trains where a node's boot train and retrain cron do: at the newest
// completion in the store, so on a trace-served node it fits the boot
// train's window rather than the wall clock's empty one.
func TestTrainWithoutNowUsesTheBootInstant(t *testing.T) {
	srv, st := testServer(t)
	var newest time.Time
	for _, j := range st.All() {
		if j.EndTime.After(newest) {
			newest = j.EndTime
		}
	}
	for _, body := range []string{"", "{}"} {
		resp, err := http.Post(srv.URL+"/v1/train", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			WindowStart time.Time `json:"window_start"`
			WindowEnd   time.Time `json:"window_end"`
			FittedJobs  int       `json:"fitted_jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("body %q: status %d (%v), want 200", body, resp.StatusCode, err)
		}
		start := newest.AddDate(0, 0, -core.DefaultConfig().Alpha)
		if !rep.WindowEnd.Equal(newest) || !rep.WindowStart.Equal(start) || rep.FittedJobs == 0 {
			t.Errorf("body %q: window [%v, %v) with %d fitted jobs, want [%v, %v) and a fit",
				body, rep.WindowStart, rep.WindowEnd, rep.FittedJobs, start, newest)
		}
	}
}

func TestNoStringMatchedErrors(t *testing.T) {
	// Guard for the API redesign: the handler layer must branch on
	// typed sentinels, never on error text.
	status, code := errToStatus(fmt.Errorf("wrap: %w", store.ErrNotFound))
	if status != http.StatusNotFound || code != "not_found" {
		t.Errorf("ErrNotFound → %d/%s", status, code)
	}
	status, code = errToStatus(fmt.Errorf("wrap: %w", core.ErrNotTrained))
	if status != http.StatusServiceUnavailable || code != "not_trained" {
		t.Errorf("ErrNotTrained → %d/%s", status, code)
	}
	status, code = errToStatus(fmt.Errorf("wrap: %w", job.ErrInvalid))
	if status != http.StatusBadRequest || code != "invalid_job" {
		t.Errorf("ErrInvalid → %d/%s", status, code)
	}
	status, code = errToStatus(badRequest(fmt.Errorf("nope")))
	if status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("badRequest → %d/%s", status, code)
	}
	status, code = errToStatus(context.DeadlineExceeded)
	if status != http.StatusGatewayTimeout || code != "deadline_exceeded" {
		t.Errorf("DeadlineExceeded → %d/%s", status, code)
	}
	status, code = errToStatus(fmt.Errorf("boom"))
	if status != http.StatusInternalServerError || code != "internal" {
		t.Errorf("unknown → %d/%s", status, code)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, _ := testServer(t)
	// Generate some traffic first.
	getJSON(t, srv.URL+"/healthz", nil)
	getJSON(t, srv.URL+"/v1/classify/s0000", nil)
	getJSON(t, srv.URL+"/v1/classify?start=2024-01-10T00:00:00Z&end=2024-01-12T00:00:00Z", nil)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, want := range []string{
		`mcbound_http_requests_total{code="200",method="GET",route="GET /healthz"}`,
		`mcbound_http_request_duration_seconds_bucket{route="GET /v1/classify/{id}",le="+Inf"}`,
		"mcbound_store_jobs 200",
		"mcbound_classify_jobs_total 13", // 1 by-ID + 12 in the range
		"# TYPE mcbound_http_request_duration_seconds histogram",
		fmt.Sprintf("mcbound_linalg_kernel_info{impl=%q} 1", linalg.Kernel()),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// metricValue reads one unlabeled sample off the server's /metrics.
func metricValue(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metrics missing %s", name)
	return ""
}

// TestEncodeCacheEvictionsExported: past the cache's capacity the
// evictions the encoder counts show on /metrics.
func TestEncodeCacheEvictionsExported(t *testing.T) {
	api := newAPI(t, seedStore(t), nil, true, Options{})
	srv := httptest.NewServer(api)
	defer srv.Close()
	if got := metricValue(t, srv.URL, "mcbound_encode_cache_evictions"); got != "0" {
		t.Fatalf("evictions before any overflow = %s, want 0", got)
	}
	const capacity = 16
	api.fw.Encoder().SetCacheCapacity(capacity)
	jobs := make([]*job.Job, 4*capacity)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID: fmt.Sprintf("e%d", i), User: "u0001", Name: fmt.Sprintf("oneoff%d", i), Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqBoost, SubmitTime: time.Now().UTC(),
		}
	}
	payload, _ := json.Marshal(jobs)
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := fmt.Sprint(api.fw.Encoder().CacheStats().Evictions)
	if got := metricValue(t, srv.URL, "mcbound_encode_cache_evictions"); got == "0" || got != want {
		t.Errorf("evictions = %s after %d one-off names into %d entries, want %s", got, len(jobs), capacity, want)
	}
}

// TestClassifyMemoHitsExported: a submission posted three times is
// embedded on its first sight, predicted from its cached vector (and
// noted) on the second, and answered from the note on the third — which
// mcbound_classify_memo_hits counts and mcbound_encode_cache_hits still
// counts as a hit.
func TestClassifyMemoHitsExported(t *testing.T) {
	api := newAPI(t, seedStore(t), nil, true, Options{})
	srv := httptest.NewServer(api)
	defer srv.Close()
	payload, _ := json.Marshal([]*job.Job{{
		ID: "m1", User: "u0001", Name: "memo_app", Environment: "gcc/12.2",
		CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqNormal,
	}})
	var bodies []string
	for sight, want := range []struct{ memo, hits string }{{"0", "0"}, {"0", "1"}, {"1", "2"}} {
		resp, err := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sight %d: status %d", sight+1, resp.StatusCode)
		}
		bodies = append(bodies, string(body))
		memo, hits := metricValue(t, srv.URL, "mcbound_classify_memo_hits"), metricValue(t, srv.URL, "mcbound_encode_cache_hits")
		if memo != want.memo || hits != want.hits {
			t.Errorf("sight %d: memo hits %s, cache hits %s; want %s, %s", sight+1, memo, hits, want.memo, want.hits)
		}
	}
	if bodies[1] != bodies[0] || bodies[2] != bodies[0] {
		t.Errorf("answers differ across sightings: %q", bodies)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	st := seedStore(t)
	api := newAPI(t, st, &laggyBackend{Backend: fetch.StoreBackend{Store: st}, delay: 300 * time.Millisecond}, true, Options{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(ln.Addr().String(), api)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, srv, ln, 5*time.Second) }()

	// Fire a classify request that will still be in flight when the
	// shutdown starts.
	type reply struct {
		code int
		pred core.Prediction
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/classify/s0060")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var pred core.Prediction
		err = json.NewDecoder(resp.Body).Decode(&pred)
		replies <- reply{code: resp.StatusCode, pred: pred, err: err}
	}()

	time.Sleep(100 * time.Millisecond) // let the request reach the laggy lookup
	cancel()                           // SIGTERM equivalent

	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK || r.pred.JobID != "s0060" {
		t.Errorf("in-flight request: status %d job %q, want 200/s0060", r.code, r.pred.JobID)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v, want nil after clean drain", err)
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// flakyBackend serves normally until fail is set, then errors every call.
type flakyBackend struct {
	inner fetch.Backend
	fail  atomic.Bool
}

func (b *flakyBackend) call() error {
	if b.fail.Load() {
		return fmt.Errorf("storage down")
	}
	return nil
}

func (b *flakyBackend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	if err := b.call(); err != nil {
		return nil, err
	}
	return b.inner.JobByID(ctx, id)
}

func (b *flakyBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if err := b.call(); err != nil {
		return nil, err
	}
	return b.inner.ExecutedBetween(ctx, start, end)
}

func (b *flakyBackend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if err := b.call(); err != nil {
		return nil, err
	}
	return b.inner.SubmittedBetween(ctx, start, end)
}

func TestHealthzUnavailableBeforeAnyModel(t *testing.T) {
	st := seedStore(t)
	srv := httptest.NewServer(newAPI(t, st, nil, false, Options{}))
	defer srv.Close()
	var body map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 with nothing to serve from", code)
	}
	if body["status"] != "unavailable" || body["trained"] != false {
		t.Errorf("health = %v", body)
	}
}

func TestHealthzReportsBreakerAndStaleness(t *testing.T) {
	st := seedStore(t)
	flaky := &flakyBackend{inner: fetch.StoreBackend{Store: st}}
	rb := fetch.NewResilientBackend(flaky, fetch.DefaultResilienceConfig())
	srv := httptest.NewServer(newAPI(t, st, rb, true, Options{Breaker: rb.Breaker()}))
	defer srv.Close()
	var body map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" || body["breaker"] != "closed" {
		t.Errorf("health = %v", body)
	}
	if _, ok := body["staleness_seconds"].(float64); !ok {
		t.Errorf("no staleness on a trained server: %v", body)
	}
}

func TestBreakerOpenReturns503WithRetryAfter(t *testing.T) {
	st := seedStore(t)
	flaky := &flakyBackend{inner: fetch.StoreBackend{Store: st}}
	rb := fetch.NewResilientBackend(flaky, fetch.ResilienceConfig{
		Retry:   resilience.Policy{MaxAttempts: 1, BaseDelay: time.Microsecond},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, Cooldown: 30 * time.Second},
	})
	srv := httptest.NewServer(newAPI(t, st, rb, true, Options{Breaker: rb.Breaker()}))
	defer srv.Close()

	flaky.fail.Store(true)
	// First request trips the breaker (plain storage error -> 500).
	if code := getJSON(t, srv.URL+"/v1/classify/s0000", nil); code != http.StatusInternalServerError {
		t.Fatalf("tripping request: status %d, want 500", code)
	}
	// Second request is rejected by the open breaker.
	resp, err := http.Get(srv.URL + "/v1/classify/s0000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e peer.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "breaker_open" {
		t.Errorf("code = %q, want breaker_open", e.Code)
	}
	after, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || after < 1 || after > 30 {
		t.Errorf("Retry-After = %q, want 1..30 seconds", resp.Header.Get("Retry-After"))
	}
	// /healthz keeps answering (stale model) and reports the open state.
	var body map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d during outage, want 200 (model still serves)", code)
	}
	if body["breaker"] != "open" {
		t.Errorf("breaker = %v, want open", body["breaker"])
	}
}
