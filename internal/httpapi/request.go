package httpapi

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/telemetry"
)

// RequestIDHeader carries a request's correlation ID.
const RequestIDHeader = "X-Request-Id"

// RequestID is r's correlation ID: the client's X-Request-Id when it is
// sane (1–128 of [A-Za-z0-9_-]), so an ID minted upstream propagates,
// and a fresh 16-hex-char one otherwise.
func RequestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" || len(id) > 128 {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return newRequestID()
		}
	}
	return id
}

func newRequestID() string {
	var b [8]byte
	var id [16]byte
	rand.Read(b[:]) // never fails on a supported platform
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// Per-route deadline multipliers over DefaultDeadline: bulk
// endpoints scan ranges and batches, retraining walks the whole α-day
// window — both legitimately run longer than a point lookup.
const (
	batchDeadlineFactor      = 2
	backgroundDeadlineFactor = 10
)

// routeDeadline derives the default deadline for a priority tier; each
// is below DefaultMaxDeadline.
func routeDeadline(pri admission.Priority) time.Duration {
	switch pri {
	case admission.Batch:
		return batchDeadlineFactor * DefaultDeadline
	case admission.Background:
		return backgroundDeadlineFactor * DefaultDeadline
	}
	return DefaultDeadline
}

// route is one registered pattern: the handler, the priority it is
// admitted at and the series it is counted under. The pattern doubles
// as the bounded-cardinality route label, never the raw URL path.
type route struct {
	h    http.HandlerFunc
	pri  admission.Priority
	hist *telemetry.Histogram

	// A route answers with a handful of (method, code) pairs, so each
	// pair's counter is looked up in the registry once, when first seen.
	reg     *telemetry.Registry
	pattern string
	mu      sync.Mutex
	codes   map[outcome]*telemetry.Counter
}

type outcome struct {
	method string
	code   int
}

// route registers h under the mux pattern, admitted at pri and counted
// in mcbound_http_requests_total{route,method,code} and
// mcbound_http_request_duration_seconds{route}.
func (s *Server) route(pattern string, pri admission.Priority, h http.HandlerFunc) {
	rt := &route{
		h: h, pri: pri, reg: s.reg, pattern: pattern,
		hist: s.reg.Histogram("mcbound_http_request_duration_seconds",
			"HTTP request latency by route.", nil, telemetry.Labels{"route": pattern}),
		codes: map[outcome]*telemetry.Counter{},
	}
	s.handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.admit(rt, w, r) }))
}

// handle registers h on the mux and records the pattern; a handler
// registered with handle alone, like /metrics, is neither admitted nor
// counted.
func (s *Server) handle(pattern string, h http.Handler) {
	s.patterns = append(s.patterns, pattern)
	s.mux.Handle(pattern, h)
}

// observe counts one answered request and its latency.
func (rt *route) observe(method string, code int, d time.Duration) {
	rt.hist.Observe(d.Seconds())
	o := outcome{method, code}
	rt.mu.Lock()
	c := rt.codes[o]
	if c == nil {
		c = rt.reg.Counter("mcbound_http_requests_total",
			"HTTP requests by route, method and status code.",
			telemetry.Labels{"route": rt.pattern, "method": method, "code": strconv.Itoa(code)})
		rt.codes[o] = c
	}
	rt.mu.Unlock()
	c.Inc()
}

// recorder is the one ResponseWriter wrapper a request gets: it keeps
// the request's ID, start instant and matched route, and records the
// status and body bytes written.
type recorder struct {
	http.ResponseWriter
	id     string
	start  time.Time
	route  *route // nil until the mux matches a registered route
	status int    // 0 until the response starts
	bytes  int64
}

func (rec *recorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *recorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(b)
	rec.bytes += int64(n)
	return n, err
}

// ServeHTTP is the one wrapper every request passes through. In order:
//
//  1. pick the client's X-Request-Id or mint one, and echo it;
//  2. cap the body at Options.MaxBodyBytes;
//  3. route: on a registered route, admit resolves the deadline and
//     takes admission (an unmatched path gets the mux's 404 or 405);
//  4. finish recovers a panic as the JSON 500, counts a matched route
//     and writes the access line.
//
// Durations are read on the server's clock.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &recorder{ResponseWriter: w, id: RequestID(r), start: s.clock.Now()}
	w.Header().Set(RequestIDHeader, rec.id)
	if r.Body != nil {
		r.Body = http.MaxBytesReader(rec, r.Body, s.maxBody)
	}
	defer s.finish(rec, r)
	s.mux.ServeHTTP(rec, r)
}

// admit runs a matched route's handler under its deadline and an
// admission slot:
//
//  1. resolve the request deadline — the per-route default, overridden
//     by a clamped X-Request-Timeout header — and set it on the server's
//     clock, the one admission reads the remaining budget on; the
//     handler, the framework calls it makes and the store reads behind
//     them all see it through the request context;
//  2. ask the admission controller for a slot at the route's priority
//     (Critical bypasses but is still counted, so /healthz answers even
//     at saturation); a rejection answers the typed 503 with Retry-After.
//
// The slot is released however the handler ends, a panic included.
func (s *Server) admit(rt *route, w http.ResponseWriter, r *http.Request) {
	w.(*recorder).route = rt
	timeout, err := admission.ParseTimeout(
		r.Header.Get(admission.TimeoutHeader), routeDeadline(rt.pri), DefaultMaxDeadline)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	ctx, cancel := clock.WithTimeout(r.Context(), s.clock, timeout)
	defer cancel()
	tk, err := s.adm.Admit(ctx, rt.pri, "")
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer tk.Release()
	rt.h(w, r.WithContext(ctx))
}

// finish ends every request, as ServeHTTP's deferred call: a panic is
// logged with its stack and answered with the JSON 500 (unless the
// response had started: a started response is never rewritten), a
// matched route counts the outcome and its latency, and the access line
// is written.
func (s *Server) finish(rec *recorder, r *http.Request) {
	if p := recover(); p != nil {
		s.log.Printf("panic serving %s %s (request_id=%s): %v\n%s",
			r.Method, r.URL.Path, rec.id, p, debug.Stack())
		if rec.status == 0 {
			rec.Header().Set("Content-Type", "application/json")
			rec.WriteHeader(http.StatusInternalServerError)
			rec.Write([]byte(`{"error":"internal server error","code":"internal"}` + "\n"))
		}
	}
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	d := s.clock.Now().Sub(rec.start)
	if rec.route != nil {
		rec.route.observe(r.Method, rec.status, d)
	}
	s.log.Printf("method=%s path=%s status=%d bytes=%d duration=%s request_id=%s",
		r.Method, r.URL.Path, rec.status, rec.bytes, d.Round(time.Microsecond), rec.id)
}

// registerAdmissionMetrics exposes the controller's state on /metrics:
// inflight/queue/p95 gauges, the offered/admitted counters, per-reason
// shed counters and the queue-wait histogram.
func registerAdmissionMetrics(reg *telemetry.Registry, adm *admission.Controller) {
	reg.GaugeFunc("mcbound_admission_inflight",
		"Requests currently holding an admission slot.", nil,
		func() float64 { return float64(adm.Inflight()) })
	reg.GaugeFunc("mcbound_admission_queue_depth",
		"Requests waiting in the admission queue.", nil,
		func() float64 { return float64(adm.QueueLen()) })
	reg.GaugeFunc("mcbound_admission_p95_service_seconds",
		"p95 service time of the last 64-request window.", nil,
		func() float64 { return adm.P95().Seconds() })

	reg.CounterFunc("mcbound_admission_requests_total",
		"Admission decisions by outcome.", telemetry.Labels{"outcome": "admitted"},
		func() int64 { return adm.Stats().Admitted })
	reg.CounterFunc("mcbound_admission_requests_total",
		"Admission decisions by outcome.", telemetry.Labels{"outcome": "bypassed"},
		func() int64 { return adm.Stats().Bypassed })
	reg.CounterFunc("mcbound_admission_requests_total",
		"Admission decisions by outcome.", telemetry.Labels{"outcome": "offered"},
		func() int64 { return adm.Stats().Offered })
	for reason, read := range map[string]func(admission.Stats) int64{
		"queue_full": func(s admission.Stats) int64 { return s.ShedQueueFull },
		"doomed":     func(s admission.Stats) int64 { return s.ShedDoomed },
		"canceled":   func(s admission.Stats) int64 { return s.ShedCanceled },
	} {
		read := read
		reg.CounterFunc("mcbound_admission_shed_total",
			"Requests shed by the admission controller, by reason.",
			telemetry.Labels{"reason": reason},
			func() int64 { return read(adm.Stats()) })
	}

	wait := reg.Histogram("mcbound_admission_queue_wait_seconds",
		"Time admitted requests spent waiting for a slot.",
		telemetry.ExponentialBuckets(0.0001, 4, 10), nil)
	adm.SetQueueWaitHook(wait.Observe)
}
