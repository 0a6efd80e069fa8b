// HTTP middleware for the serving path: request ID injection, panic
// recovery with a JSON 500, structured access logging, and per-route
// request counters + latency histograms. Middlewares compose with
// Chain; each is an independent func(http.Handler) http.Handler.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// Middleware wraps an http.Handler with extra behavior.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares to h with the first argument outermost:
// Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// ResponseRecorder wraps a ResponseWriter and records the status code
// and body bytes written, so outer middleware can observe the outcome.
type ResponseRecorder struct {
	http.ResponseWriter
	Status int
	Bytes  int64
	wrote  bool
}

// NewResponseRecorder wraps w (idempotent: an already-wrapped recorder
// is returned as-is so nested middlewares share one view).
func NewResponseRecorder(w http.ResponseWriter) *ResponseRecorder {
	if rec, ok := w.(*ResponseRecorder); ok {
		return rec
	}
	return &ResponseRecorder{ResponseWriter: w}
}

// WriteHeader implements http.ResponseWriter.
func (r *ResponseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.Status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (r *ResponseRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.Status = http.StatusOK
		r.wrote = true
	}
	n, err := r.ResponseWriter.Write(b)
	r.Bytes += int64(n)
	return n, err
}

// Started reports whether any part of the response has been written.
func (r *ResponseRecorder) Started() bool { return r.wrote }

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDHeader is the header carrying the request correlation ID.
const RequestIDHeader = "X-Request-Id"

// NewRequestID returns a fresh 16-hex-char correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; keep serving.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// RequestIDFrom extracts the request ID injected by RequestID ("" when
// absent).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// RequestID injects a correlation ID into the request context and
// echoes it in the response header. A syntactically sane incoming
// X-Request-Id is honored so IDs propagate across services.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Recover converts handler panics into a 500 with an intact JSON error
// body (unless the response already started) and logs the stack.
func Recover(logger *log.Logger) Middleware {
	if logger == nil {
		logger = log.Default()
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := NewResponseRecorder(w)
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				logger.Printf("panic serving %s %s (request_id=%s): %v\n%s",
					r.Method, r.URL.Path, RequestIDFrom(r.Context()), p, debug.Stack())
				if !rec.Started() {
					rec.Header().Set("Content-Type", "application/json")
					rec.WriteHeader(http.StatusInternalServerError)
					fmt.Fprintf(rec, `{"error":"internal server error","code":"internal"}`+"\n")
				}
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// AccessLog emits one structured line per request: method, path,
// status, bytes, duration and request ID.
func AccessLog(logger *log.Logger) Middleware {
	if logger == nil {
		logger = log.Default()
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := NewResponseRecorder(w)
			t0 := time.Now()
			next.ServeHTTP(rec, r)
			status := rec.Status
			if status == 0 {
				status = http.StatusOK
			}
			logger.Printf("method=%s path=%s status=%d bytes=%d duration=%s request_id=%s",
				r.Method, r.URL.Path, status, rec.Bytes,
				time.Since(t0).Round(time.Microsecond), RequestIDFrom(r.Context()))
		})
	}
}

// Instrument counts requests and observes latency for one route. The
// route label must be the registered pattern, never the raw URL path
// (unbounded label cardinality). Series:
//
//	mcbound_http_requests_total{route,method,code}
//	mcbound_http_request_duration_seconds{route}
//
// A route answers with a handful of (method, code) pairs, so each
// pair's counter is looked up in the registry once, when first seen —
// not rendered from a label map on every request.
func Instrument(reg *Registry, route string) Middleware {
	hist := reg.Histogram("mcbound_http_request_duration_seconds",
		"HTTP request latency by route.", nil, Labels{"route": route})
	type outcome struct {
		method string
		code   int
	}
	var mu sync.Mutex
	seen := make(map[outcome]*Counter)
	counter := func(o outcome) *Counter {
		mu.Lock()
		defer mu.Unlock()
		c := seen[o]
		if c == nil {
			c = reg.Counter("mcbound_http_requests_total",
				"HTTP requests by route, method and status code.",
				Labels{"route": route, "method": o.method, "code": strconv.Itoa(o.code)})
			seen[o] = c
		}
		return c
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := NewResponseRecorder(w)
			t0 := time.Now()
			next.ServeHTTP(rec, r)
			status := rec.Status
			if status == 0 {
				status = http.StatusOK
			}
			hist.Observe(time.Since(t0).Seconds())
			counter(outcome{r.Method, status}).Inc()
		})
	}
}
