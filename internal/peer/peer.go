// Package peer is the wire contract between MCBound processes and the
// one client that speaks it. Every request one process originates at
// another — WAL shipping, lease reads and acks, the router's health
// probe, the train and infer scripts — is built,
// sent, bounded and classified here. What stays with a caller is what
// only it knows: its retry values, its *http.Client, the deadline on
// the context it passes (set on the caller's clock), and what a status
// means in its domain. The package imports only the standard library,
// so the server that writes the envelope shares it.
package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ErrorBody is the error envelope every handler returns: a human
// message plus a stable machine-readable code. Index is set only for
// batch-insert rejections (the offset of the first invalid record).
// The front door (internal/router) emits the same envelope for the
// errors it originates itself.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Index *int   `json:"index,omitempty"`
}

// Error is a peer's answer other than 200: the status, the envelope's
// code and message (no code, and the raw text, when the body is not an
// envelope), and the body as read — /healthz answers a degraded 503
// with its document.
type Error struct {
	Method, URL string
	Status      int
	Code        string
	Message     string
	Body        []byte
}

func (e *Error) Error() string {
	status := strings.TrimSpace(fmt.Sprintf("%d %s", e.Status, e.Code))
	return fmt.Sprintf("%s %s: status %s: %s", e.Method, e.URL, status, e.Message)
}

// Retryable is the one rule for which answers are worth asking again:
// the peer failed (5xx) or asked for patience (429).
func (e *Error) Retryable() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// ErrBody marks a response whose status line arrived and whose body
// broke off or ran past the limit: reachable, but what it said is unknown.
var ErrBody = errors.New("peer: unreadable response body")

// DefaultLimit bounds a response body when the call names no limit.
const DefaultLimit = 1 << 20

// Call is one request: Header is sent as given, Body (when non-nil) as
// ContentType, and Limit is the largest response body accepted (0
// selects DefaultLimit) — one byte more is ErrBody, never a silent cut.
type Call struct {
	Method, URL string
	Header      http.Header
	Body        []byte
	ContentType string
	Limit       int64
}

// Do sends c on hc and returns the body and headers of a 200 answer.
// Any other status is an *Error; a failure to reach the peer is the
// transport's error, a body lost or over the limit is ErrBody.
func Do(ctx context.Context, hc *http.Client, c Call) ([]byte, http.Header, error) {
	var rd io.Reader
	if c.Body != nil {
		rd = bytes.NewReader(c.Body)
	}
	req, err := http.NewRequestWithContext(ctx, c.Method, c.URL, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("peer: %w", err)
	}
	for k, vs := range c.Header {
		req.Header[k] = vs
	}
	if c.Body != nil && c.ContentType != "" {
		req.Header.Set("Content-Type", c.ContentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	limit := c.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w: %w", c.Method, c.URL, ErrBody, err)
	}
	if int64(len(body)) > limit {
		return nil, nil, fmt.Errorf("%s %s: %w: over the %d-byte limit", c.Method, c.URL, ErrBody, limit)
	}
	if resp.StatusCode == http.StatusOK {
		return body, resp.Header, nil
	}
	e := &Error{Method: c.Method, URL: c.URL, Status: resp.StatusCode, Body: body}
	var env ErrorBody
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		e.Code, e.Message = env.Code, env.Error
	} else {
		e.Message = string(bytes.TrimSpace(body[:min(len(body), 256)]))
	}
	return nil, nil, e
}

// JSON is Do for the JSON routes: in, when non-nil, is marshalled as
// the request body, and the 200 answer is decoded into out.
func JSON(ctx context.Context, hc *http.Client, c Call, in, out any) error {
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("peer: encode %s %s: %w", c.Method, c.URL, err)
		}
		c.Body, c.ContentType = b, "application/json"
	}
	body, _, err := Do(ctx, hc, c)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decode response: %w", c.Method, c.URL, err)
	}
	return nil
}
