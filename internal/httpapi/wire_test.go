package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/peer"
)

// windowJobs is a periodic-trigger body: n submissions over a handful of
// applications, every ID distinct.
func windowJobs(n int) []*job.Job {
	submit := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID: fmt.Sprintf("w%05d", i), User: fmt.Sprintf("u%04d", i%7), Name: []string{"memapp", "compapp", "cfd_prod"}[i%3],
			Environment: "gcc/12.2", CoresRequested: 48 * (1 + i%4), NodesRequested: 1 + i%4,
			FreqRequested: job.FreqBoost, SubmitTime: submit.Add(time.Duration(i) * time.Second),
		}
	}
	return jobs
}

func postBody(t *testing.T, url string, body io.Reader) (int, peer.ErrorBody) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e peer.ErrorBody
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with an undecodable error body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, e
}

// TestNullRecordRejected: a null element of a posted batch is a client
// error naming the offender on both batch endpoints. POST /v1/classify
// used to dereference it and answer 500.
func TestNullRecordRejected(t *testing.T) {
	srv, st := testServer(t)
	before := st.Len()
	for _, path := range []string{"/v1/jobs", "/v1/classify"} {
		for body, index := range map[string]int{
			`[null]`: 0,
			`[{"id":"a","user":"u1","cores_req":48,"nodes_req":1,"freq_req":2000},null]`: 1,
		} {
			status, e := postBody(t, srv.URL+path, strings.NewReader(body))
			if status != http.StatusBadRequest || e.Code != "invalid_job" || e.Index == nil || *e.Index != index {
				t.Errorf("%s %s: status %d code %q index %v, want 400 invalid_job index %d", path, body, status, e.Code, e.Index, index)
			}
		}
	}
	if st.Len() != before {
		t.Errorf("a rejected batch inserted %d records", st.Len()-before)
	}
}

// TestMalformedBodiesAnswerAsEncodingJSON: whatever is wrong with a body,
// the status, code and message are the ones encoding/json's own error
// gives — the codec hands anything it does not recognise back to it — and
// a legal body in an unusual spelling is accepted as before.
func TestMalformedBodiesAnswerAsEncodingJSON(t *testing.T) {
	srv, _ := testServer(t)
	for _, body := range []string{
		``, ` `, `{not json`, `nul`, `{"id":"a"}`, `[{"id":"a"}`, `[{"id":"a"},]`, `[{"id":1}]`, `[{"cores_req":1e3}]`,
		`[{"cores_req":9223372036854775808}]`, `[{"freq_req":2147483648}]`, `[{"true_label":128}]`,
		`[{"submit":"2024-02-30T00:00:00Z"}]`, `[{"counters":{"perf2":NaN}}]`, "[{\"name\":\"tab\there\"}]", `[1]`, `"x"`,
	} {
		var jobs []*job.Job
		stdErr := json.NewDecoder(strings.NewReader(body)).Decode(&jobs)
		if stdErr == nil {
			t.Fatalf("%q is not malformed", body)
		}
		want := "bad request: bad jobs payload: " + stdErr.Error()
		for _, path := range []string{"/v1/jobs", "/v1/classify"} {
			status, e := postBody(t, srv.URL+path, strings.NewReader(body))
			if status != http.StatusBadRequest || e.Code != "bad_request" || e.Error != want {
				t.Errorf("%s %q: %d %s %q, want 400 bad_request %q", path, body, status, e.Code, e.Error, want)
			}
		}
	}
	fallbacks := job.Fallbacks()
	for _, body := range []string{
		`null x`, `[]`, ` [ ] trailing bytes are never read`,
		`[{"ID":"case","user":"u1"},{"id":"escape","unknown":[1,{"x":null}]},{"id":"dup","id":"dup2","name":null}]`,
	} {
		if status, e := postBody(t, srv.URL+"/v1/classify", strings.NewReader(body)); status != http.StatusOK {
			t.Errorf("%q: status %d (%s), want 200", body, status, e.Error)
		}
	}
	if n := job.Fallbacks() - fallbacks; n != 2 {
		t.Errorf("2 of these bodies are outside the strict subset, the fallback counter moved by %d", n)
	}
	if metrics := scrape(t, srv.URL); !strings.Contains(metrics, fmt.Sprintf("mcbound_http_decode_fallback_total %d\n", job.Fallbacks())) {
		t.Errorf("/metrics does not report mcbound_http_decode_fallback_total = %d", job.Fallbacks())
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChunkedWindowBody: a 1 000-job body sent without Content-Length
// (the pooled buffer has to grow as it reads) classifies like a sized one.
func TestChunkedWindowBody(t *testing.T) {
	srv, _ := testServer(t)
	payload, _ := json.Marshal(windowJobs(1000))
	for _, body := range []io.Reader{bytes.NewReader(payload), io.MultiReader(bytes.NewReader(payload))} {
		resp, err := http.Post(srv.URL+"/v1/classify", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		var preds []core.Prediction
		err = json.NewDecoder(resp.Body).Decode(&preds)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(preds) != 1000 || preds[999].JobID != "w00999" {
			t.Fatalf("status %d, %d predictions, err %v", resp.StatusCode, len(preds), err)
		}
	}
}

// countingWriter is a recorder that also counts Write calls.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// TestClassifyBatchResponseBytes: a POSTed 1 000-job window answers, in
// one Write, with exactly the bytes json.Encoder writes for its
// predictions (IDs that need escaping included), in input order.
func TestClassifyBatchResponseBytes(t *testing.T) {
	const n = 1000
	api := newAPI(t, seedStore(t), nil, true, Options{})
	jobs := make([]*job.Job, n)
	for i := range jobs {
		id := fmt.Sprintf("b%04d", i)
		if i%7 == 0 {
			id = fmt.Sprintf("b<%04d>\"é\x01", i) // not the append encoder's to render
		}
		jobs[i] = &job.Job{
			ID: id, User: "u0001", Name: []string{"memapp", "cpuapp"}[i%2],
			Environment: "gcc/12.2", CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqBoost,
		}
	}
	payload, _ := json.Marshal(jobs)
	rec := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(payload)))
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK || rec.writes != 1 {
		t.Fatalf("status %d in %d writes, want 200 in 1", rec.Code, rec.writes)
	}
	var preds []core.Prediction
	if err := json.Unmarshal(body, &preds); err != nil || len(preds) != n {
		t.Fatalf("decoded %d predictions: %v", len(preds), err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(preds); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("body is not json.Encoder's encoding:\n got %.300q\nwant %.300q", body, want.Bytes())
	}
	for i := range preds {
		if preds[i].JobID != jobs[i].ID {
			t.Fatalf("row %d answers job %q, want %q", i, preds[i].JobID, jobs[i].ID)
		}
	}
}

// classifyAllocs counts the allocations of one POST /v1/classify through
// the whole handler stack into a recorder, request and recorder included
// (the measure the repo benchmark reports as httpapi.classify_handler_allocs).
func classifyAllocs(t *testing.T, api http.Handler, payload []byte, runs int) float64 {
	t.Helper()
	return testing.AllocsPerRun(runs, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(payload))
		req.Header.Set("X-Client-Id", "alloc-test")
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

// TestClassifyAllocationBudget pins what the wire codec bought, so that a
// return to reflection — a changed struct tag sending every body down
// the fallback, a per-prediction json.Marshal — fails here and not in a
// benchmark three changes later. The ceilings are about 10 % above the
// measured counts: 44 for one job (48 through the five separate
// wrappers the one request wrapper replaced) and 2 166 for the window, 2 000 of
// which are the decoded records and the one string allocation each has.
// With encoding/json on both ends they were 84 and 6 191.
func TestClassifyAllocationBudget(t *testing.T) {
	api := newAPI(t, seedStore(t), nil, true, Options{})
	single, _ := json.Marshal(windowJobs(1))
	window, _ := json.Marshal(windowJobs(1000))
	if got := classifyAllocs(t, api, single, 200); got > 48 {
		t.Errorf("single-job classify: %.0f allocations, budget 48", got)
	}
	if got := classifyAllocs(t, api, window, 10); got > 2400 {
		t.Errorf("1 000-job classify: %.0f allocations, budget 2 400", got)
	}
}
