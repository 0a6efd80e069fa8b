package node

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
)

// Transport is an in-memory http.RoundTripper: a request is served, on
// the caller's goroutine, by the handler registered for its URL host,
// crossing that handler's whole request wrapper without a listener.
// Handed to several nodes as Config.HTTP (and to a router as
// router.Config.HTTP) it is a cluster's network in one process. Responses are buffered whole: every call
// between processes is one bounded request and one bounded response.
type Transport struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler
}

// NewTransport returns a Transport with no host registered.
func NewTransport() *Transport { return &Transport{handlers: make(map[string]http.Handler)} }

// Handle serves host (the URL's host:port) from h. A nil h takes the
// host off the network: requests to it fail like a refused connection.
func (t *Transport) Handle(host string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[host] = h
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.RLock()
	h := t.handlers[req.URL.Host]
	t.mu.RUnlock()
	in := req.Clone(req.Context())
	if in.Body == nil {
		in.Body = http.NoBody
	}
	defer in.Body.Close()
	if h == nil {
		return nil, fmt.Errorf("node: no handler for host %q: connection refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
