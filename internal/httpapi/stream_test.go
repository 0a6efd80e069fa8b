package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/peer"
	"mcbound/internal/store"
)

func streamTestServer(t *testing.T, opts Options) (*httptest.Server, *store.Store) {
	t.Helper()
	st := seedStore(t)
	srv := httptest.NewServer(newAPI(t, st, nil, true, opts))
	t.Cleanup(srv.Close)
	return srv, st
}

func ndjsonRecord(i int) string {
	submit := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute)
	b, _ := json.Marshal(&job.Job{
		ID: fmt.Sprintf("nd%05d", i), User: "u0003", Name: "streamapp",
		Environment: "gcc/12.2", CoresRequested: 4, NodesRequested: 1,
		NodesAllocated: 1, FreqRequested: job.FreqBoost,
		SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(time.Hour),
	})
	return string(b)
}

// postStream sends raw NDJSON to /v1/jobs/stream and decodes the frame
// protocol response.
func postStream(t *testing.T, url, body string, hdr map[string]string) []peer.StreamFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var frames []peer.StreamFrame
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var f peer.StreamFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestInsertStreamFrames: batched acks, per-record error frames (the
// stream is not all-or-nothing) and a totaling done frame.
func TestInsertStreamFrames(t *testing.T) {
	srv, st := streamTestServer(t, Options{StreamBatchSize: 2})
	before := st.Len()

	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteString(ndjsonRecord(i) + "\n")
	}
	b.WriteString("{not json}\n")
	b.WriteString("\n") // blank lines are skipped, not errors
	b.WriteString(`{"id":"","user":"u0003"}` + "\n")
	b.WriteString(ndjsonRecord(4) + "\n")

	frames := postStream(t, srv.URL, b.String(), nil)
	var acks, errs, dones int
	var last peer.StreamFrame
	cum := 0
	for _, f := range frames {
		switch f.Frame {
		case "ack":
			acks++
			cum += f.Count
			if f.Acked != cum {
				t.Fatalf("ack %d: cumulative %d, want %d", f.Seq, f.Acked, cum)
			}
		case "error":
			errs++
			if f.Fatal {
				t.Fatalf("unexpected fatal error frame: %+v", f)
			}
			if f.Line == 0 || f.Code == "" {
				t.Fatalf("error frame missing line/code: %+v", f)
			}
		case "done":
			dones++
			last = f
		}
	}
	if acks != 3 || errs != 2 || dones != 1 {
		t.Fatalf("frames: %d acks, %d errors, %d done (want 3/2/1): %+v", acks, errs, dones, frames)
	}
	if last.Acked != 5 || last.Rejected != 2 || last.Batches != 3 {
		t.Fatalf("done frame %+v, want acked=5 rejected=2 batches=3", last)
	}
	if got := st.Len() - before; got != 5 {
		t.Fatalf("store grew by %d, want 5", got)
	}
}

// TestInsertStreamErrorCodes: the per-record error frames reuse the
// API's stable error codes.
func TestInsertStreamErrorCodes(t *testing.T) {
	srv, _ := streamTestServer(t, Options{})
	frames := postStream(t, srv.URL, "{oops\n"+`{"id":""}`+"\n", nil)
	codes := map[string]bool{}
	for _, f := range frames {
		if f.Frame == "error" {
			codes[f.Code] = true
		}
	}
	if !codes[codeBadRequest] || !codes[codeInvalidJob] {
		t.Fatalf("error codes %v, want both %q and %q", codes, codeBadRequest, codeInvalidJob)
	}
}

// TestInsertStreamExemptFromBodyCap: the stream accepts bodies far
// beyond MaxBodyBytes — the global cap applies per-record, not to the
// connection.
func TestInsertStreamExemptFromBodyCap(t *testing.T) {
	srv, st := streamTestServer(t, Options{MaxBodyBytes: 4 << 10, StreamBatchSize: 512})
	before := st.Len()
	var b strings.Builder
	n := 0
	for b.Len() < 64<<10 { // 16× the configured cap
		b.WriteString(ndjsonRecord(1000+n) + "\n")
		n++
	}
	frames := postStream(t, srv.URL, b.String(), nil)
	done := frames[len(frames)-1]
	if done.Frame != "done" || done.Acked != n || done.Rejected != 0 {
		t.Fatalf("done frame %+v, want acked=%d", done, n)
	}
	if st.Len()-before != n {
		t.Fatalf("store grew by %d, want %d", st.Len()-before, n)
	}
	// The atomic batch endpoint still enforces the cap. (Whitespace
	// padding keeps the decoder reading until it trips the byte limit.)
	over := append(bytes.Repeat([]byte(" "), 8<<10), []byte("[]")...)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch insert over cap: status %d, want 413", resp.StatusCode)
	}
}

// TestStreamIgnoresRequestTimeoutClamp: a deadline header that would
// doom a normal request only scopes per-chunk work on a stream — the
// long-lived connection itself is never clamped.
func TestStreamIgnoresRequestTimeoutClamp(t *testing.T) {
	srv, _ := streamTestServer(t, Options{StreamBatchSize: 8})
	var b strings.Builder
	for i := 0; i < 100; i++ {
		b.WriteString(ndjsonRecord(2000+i) + "\n")
	}
	frames := postStream(t, srv.URL, b.String(), map[string]string{"X-Request-Timeout": "1ms"})
	done := frames[len(frames)-1]
	if done.Frame != "done" || done.Acked != 100 {
		t.Fatalf("stream under 1ms chunk budget: done=%+v, want acked=100", done)
	}
}

// sseClient reads one /v1/predictions/stream connection, collecting
// event types and IDs until n events (or the deadline) arrive.
type sseEvent struct {
	id    string
	event string
	data  string
}

func readSSE(t *testing.T, url string, lastEventID string, n int) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/predictions/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sse status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content type %q", ct)
	}
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(10 * time.Second)
	lines := make(chan string, 256)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for len(events) < n {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed after %d events, want %d: %v", len(events), n, events)
			}
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				events = append(events, cur)
				cur = sseEvent{}
			}
		case <-deadline:
			t.Fatalf("timed out after %d events, want %d: %v", len(events), n, events)
		}
	}
	return events
}

// classifySome triggers write-path classifications via
// GET /v1/classify/{id} (the route that publishes to the prediction
// stream) and returns how many.
func classifySome(t *testing.T, url string, lo, hi int) int {
	t.Helper()
	for i := lo; i < hi; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/classify/s%04d", url, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify s%04d: status %d", i, resp.StatusCode)
		}
	}
	return hi - lo
}

// TestPredictionStreamLive: a subscriber receives every classification
// the server produces, with dense event IDs.
func TestPredictionStreamLive(t *testing.T) {
	srv, _ := streamTestServer(t, Options{})
	// Fire classifications shortly after the subscriber attaches; the
	// SSE read happens on the test goroutine so failures report cleanly.
	go func() {
		time.Sleep(150 * time.Millisecond)
		for i := 0; i < 5; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/classify/s%04d", srv.URL, i))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	events := readSSE(t, srv.URL, "", 5)
	for i, ev := range events {
		if ev.event != "prediction" {
			t.Fatalf("event %d: type %q, want prediction", i, ev.event)
		}
		if want := fmt.Sprintf("%d", i+1); ev.id != want {
			t.Fatalf("event %d: id %q, want %q (dense IDs)", i, ev.id, want)
		}
		var body struct {
			JobID string `json:"job_id"`
			Class string `json:"class"`
		}
		if err := json.Unmarshal([]byte(ev.data), &body); err != nil || body.JobID == "" || body.Class == "" {
			t.Fatalf("event %d: bad payload %q (%v)", i, ev.data, err)
		}
	}
}

// TestPredictionStreamResume: Last-Event-ID replays exactly the missed
// events while the ring covers them, and a reset marker replaces a
// silent hole once it does not.
func TestPredictionStreamResume(t *testing.T) {
	srv, _ := streamTestServer(t, Options{SSEBufferSize: 4})
	classifySome(t, srv.URL, 0, 3) // events 1..3 published, ring holds them

	events := readSSE(t, srv.URL, "1", 2) // resume after 1 → replay 2, 3
	if events[0].id != "2" || events[1].id != "3" {
		t.Fatalf("resume replay ids %q,%q, want 2,3", events[0].id, events[1].id)
	}

	classifySome(t, srv.URL, 3, 9)       // events 4..9; ring (cap 4) now 6..9
	events = readSSE(t, srv.URL, "1", 5) // 2,3 rotated out → reset, then 6..9
	if events[0].event != "reset" {
		t.Fatalf("first event %q, want reset (gap marker)", events[0].event)
	}
	for i, want := range []string{"6", "7", "8", "9"} {
		if events[i+1].id != want {
			t.Fatalf("post-reset event %d id %q, want %q", i, events[i+1].id, want)
		}
	}
}

// TestRangeReadsDoNotPublish: GET /v1/classify range pages, first or
// resumed, are pure reads — polling them must not push duplicate events
// to prediction-stream subscribers. Only the write path publishes.
func TestRangeReadsDoNotPublish(t *testing.T) {
	st := seedStore(t)
	api := newAPI(t, st, nil, true, Options{})
	srv := httptest.NewServer(api)
	defer srv.Close()
	page := srv.URL + "/v1/classify?start=2024-01-01T00:00:00Z&end=2024-03-01T00:00:00Z&limit=5"
	var first, second envelope
	if code := getJSON(t, page, &first); code != http.StatusOK || first.NextCursor == "" {
		t.Fatalf("first page: status %d next_cursor %q", code, first.NextCursor)
	}
	if code := getJSON(t, page+"&cursor="+url.QueryEscape(first.NextCursor), &second); code != http.StatusOK || len(second.Items) != 5 {
		t.Fatalf("second page: status %d items %d", code, len(second.Items))
	}
	if n := api.hub.published.Load(); n != 0 {
		t.Fatalf("range reads published %d stream events, want 0", n)
	}
	classifySome(t, srv.URL, 0, 2)
	if n := api.hub.published.Load(); n != 2 {
		t.Fatalf("write path published %d stream events, want 2", n)
	}
}

// TestPredictionStreamHugeResumeID: an out-of-range numeric
// Last-Event-ID (e.g. 2^63, which used to panic the backlog index
// arithmetic) answers with a reset event, not a connection abort.
func TestPredictionStreamHugeResumeID(t *testing.T) {
	srv, _ := streamTestServer(t, Options{})
	classifySome(t, srv.URL, 0, 1)
	events := readSSE(t, srv.URL, "9223372036854775808", 1)
	if events[0].event != "reset" {
		t.Fatalf("first event %q, want reset", events[0].event)
	}
}

// TestPredictionStreamBadResumeID: garbage Last-Event-ID answers 400
// before the stream starts.
func TestPredictionStreamBadResumeID(t *testing.T) {
	srv, _ := streamTestServer(t, Options{})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/predictions/stream", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad resume id: status %d, want 400", resp.StatusCode)
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
// predictions (IDs that need escaping included); the prediction stream
// carries the same element bytes under consecutive event IDs in input
// order, and a subscriber resuming from an ID in the middle of the batch
// gets an exact replay of the rest.
func TestClassifyBatchResponseBytes(t *testing.T) {
	const n = 1000
	st := seedStore(t)
	api := newAPI(t, st, nil, true, Options{SSEBufferSize: 2 * n})
	srv := httptest.NewServer(api)
	defer srv.Close()
	classifySome(t, srv.URL, 0, 2) // the batch does not start at event 1

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
	if got := api.hub.published.Load(); got != 2+n {
		t.Fatalf("published %d events, want %d", got, 2+n)
	}

	const resumeAt = 2 + n/2 // an ID inside the batch
	events := readSSE(t, srv.URL, strconv.Itoa(resumeAt), 2+n-resumeAt)
	for k, ev := range events {
		row := resumeAt - 2 + k // batch row of event resumeAt+1+k
		if ev.id != strconv.Itoa(resumeAt+1+k) {
			t.Fatalf("replayed event %d has id %s, want %d", k, ev.id, resumeAt+1+k)
		}
		elem, _ := json.Marshal(&preds[row])
		if ev.data != string(elem) || preds[row].JobID != jobs[row].ID {
			t.Fatalf("event id %s carries %s, want row %d = %s", ev.id, ev.data, row, elem)
		}
	}
}
