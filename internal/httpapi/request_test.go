package httpapi

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcbound/internal/admission"
	"mcbound/internal/telemetry"
)

// wrapperServer is an untrained server whose log lines land in the
// returned buffer; tests add their own routes through Server.route.
func wrapperServer(t *testing.T) (*Server, *bytes.Buffer) {
	t.Helper()
	s := newAPI(t, seedStore(t), nil, false, Options{})
	var buf bytes.Buffer
	s.log = log.New(&buf, "", 0)
	return s, &buf
}

func serve(s *Server, method, target, requestID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	if requestID != "" {
		req.Header.Set(RequestIDHeader, requestID)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func routeCount(s *Server, route, method, code string) int64 {
	return s.reg.Counter("mcbound_http_requests_total", "",
		telemetry.Labels{"route": route, "method": method, "code": code}).Value()
}

func routeHist(s *Server, route string) *telemetry.Histogram {
	return s.reg.Histogram("mcbound_http_request_duration_seconds", "", nil, telemetry.Labels{"route": route})
}

func exposition(s *Server) string {
	var b strings.Builder
	s.reg.WritePrometheus(&b)
	return b.String()
}

func TestRequestIDInjection(t *testing.T) {
	s, _ := wrapperServer(t)
	s.route("GET /v1/echo", admission.Interactive, func(http.ResponseWriter, *http.Request) {})

	// Minted when absent: 16 hex characters.
	minted := serve(s, "GET", "/v1/echo", "").Header().Get(RequestIDHeader)
	if len(minted) != 16 || strings.Trim(minted, "0123456789abcdef") != "" {
		t.Errorf("minted ID %q is not 16 hex characters", minted)
	}
	if again := serve(s, "GET", "/v1/echo", "").Header().Get(RequestIDHeader); again == minted {
		t.Errorf("two requests got the one ID %q", again)
	}
	// A sane incoming ID propagates.
	if got := serve(s, "GET", "/v1/echo", "upstream-42").Header().Get(RequestIDHeader); got != "upstream-42" {
		t.Errorf("incoming ID not honored: got %q", got)
	}
	// A garbage or oversized one is replaced.
	for _, bad := range []string{"bad id\twith tab", "semi;colon", strings.Repeat("x", 129)} {
		if got := serve(s, "GET", "/v1/echo", bad).Header().Get(RequestIDHeader); got == bad || len(got) != 16 {
			t.Errorf("incoming ID %q answered with %q, want a fresh one", bad, got)
		}
	}
}

// TestRecoverPanicToJSON500: a route that panics answers the JSON 500,
// releases its admission slot, logs the stack once with the request ID,
// and is counted like any other answer — in its route's code="500"
// series and its latency histogram.
func TestRecoverPanicToJSON500(t *testing.T) {
	s, logs := wrapperServer(t)
	s.route("GET /v1/boom", admission.Interactive, func(http.ResponseWriter, *http.Request) { panic("boom") })

	rec := serve(s, "GET", "/v1/boom", "panic-1")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body struct{ Error, Code string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" || body.Code != "internal" {
		t.Errorf("body %q (%v), want the internal error envelope", rec.Body.String(), err)
	}
	if got := routeCount(s, "GET /v1/boom", "GET", "500"); got != 1 {
		t.Errorf(`requests_total{code="500"} = %d, want 1`, got)
	}
	if got := routeHist(s, "GET /v1/boom").Count(); got != 1 {
		t.Errorf("duration histogram count = %d, want 1", got)
	}
	if n := s.adm.Inflight(); n != 0 {
		t.Errorf("%d admission slots still held after the panic", n)
	}
	if st := s.adm.Stats(); st.Admitted != 1 {
		t.Errorf("admitted %d, want 1", st.Admitted)
	}
	out := logs.String()
	if n := strings.Count(out, "panic serving"); n != 1 {
		t.Errorf("panic logged %d times, want once:\n%s", n, out)
	}
	for _, want := range []string{"GET /v1/boom (request_id=panic-1): boom", "goroutine ", "status=500"} {
		if !strings.Contains(out, want) {
			t.Errorf("log lacks %q:\n%s", want, out)
		}
	}
}

func TestRecoverAfterResponseStarted(t *testing.T) {
	s, _ := wrapperServer(t)
	s.route("GET /v1/late", admission.Interactive, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late boom")
	})
	rec := serve(s, "GET", "/v1/late", "")
	if rec.Code != http.StatusAccepted || rec.Body.Len() != 0 {
		t.Errorf("response rewritten after it started: %d %q", rec.Code, rec.Body.String())
	}
	if got := routeCount(s, "GET /v1/late", "GET", "202"); got != 1 {
		t.Errorf(`requests_total{code="202"} = %d, want 1`, got)
	}
}

func TestAccessLogLine(t *testing.T) {
	s, logs := wrapperServer(t)
	s.route("GET /v1/pot", admission.Interactive, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	})
	serve(s, "GET", "/v1/pot", "tea-1")
	line := logs.String()
	for _, want := range []string{"method=GET", "path=/v1/pot", "status=418", "bytes=15", "duration=", "request_id=tea-1"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q: %s", want, line)
		}
	}
}

func TestRouteCountsAndBuckets(t *testing.T) {
	s, _ := wrapperServer(t)
	s.route("GET /v1/thing", admission.Interactive, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	for i := 0; i < 3; i++ {
		serve(s, "GET", "/v1/thing", "")
	}
	if got := routeCount(s, "GET /v1/thing", "GET", "200"); got != 3 {
		t.Errorf("requests_total = %d, want 3", got)
	}
	hist := routeHist(s, "GET /v1/thing")
	if hist.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", hist.Count())
	}
	if cum := hist.BucketCounts(); cum[len(cum)-1] != 3 {
		t.Errorf("+Inf bucket = %d, want 3", cum[len(cum)-1])
	}
}

// TestUncountedPaths: an unmatched path's 404 or 405, and /metrics, get
// an ID and an access line but no route series, and take no admission.
func TestUncountedPaths(t *testing.T) {
	s, logs := wrapperServer(t)
	for _, c := range []struct {
		method, target string
		code           int
	}{
		{"GET", "/nope", http.StatusNotFound},
		{"DELETE", "/v1/model", http.StatusMethodNotAllowed},
		{"GET", "/metrics", http.StatusOK},
	} {
		rec := serve(s, c.method, c.target, "")
		if rec.Code != c.code || rec.Header().Get(RequestIDHeader) == "" {
			t.Errorf("%s %s: %d with ID %q, want %d with an ID", c.method, c.target, rec.Code, rec.Header().Get(RequestIDHeader), c.code)
		}
		if want := "path=" + c.target + " status="; !strings.Contains(logs.String(), want) {
			t.Errorf("no access line for %s %s", c.method, c.target)
		}
	}
	if st := s.adm.Stats(); st.Offered != 0 || st.Bypassed != 0 {
		t.Errorf("admission saw %+v, want nothing", st)
	}
	// Each route's histogram is registered with the route; none moved.
	for _, line := range strings.Split(exposition(s), "\n") {
		if strings.HasPrefix(line, "mcbound_http_requests_total{") ||
			strings.HasPrefix(line, "mcbound_http_request_duration_seconds_count{") && !strings.HasSuffix(line, " 0") {
			t.Errorf("an uncounted path moved a route series: %s", line)
		}
	}
}
