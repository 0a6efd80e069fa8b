package admission

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Request headers the serving layer honors.
const (
	// TimeoutHeader lets a client shrink (or, within the clamp, grow)
	// the per-request deadline: a bare integer is milliseconds, any Go
	// duration string ("250ms", "2s") also parses.
	TimeoutHeader = "X-Request-Timeout"
	// ClientIDHeader identifies the caller; the router hashes it
	// (through ClientKey) to pin a client's reads to one follower.
	ClientIDHeader = "X-Client-Id"
)

// MinTimeout is the floor every parsed client timeout is clamped to.
const MinTimeout = time.Millisecond

// ErrBadTimeout is wrapped by ParseTimeout rejections (the HTTP layer
// maps it to 400).
var ErrBadTimeout = errors.New("admission: invalid timeout header")

// ParseTimeout interprets an X-Request-Timeout value. An empty value
// selects def; otherwise the parsed duration is clamped into
// [MinTimeout, max]. Non-positive, non-finite and unparseable values
// are rejected — never panics, and a nil error guarantees the result
// lies within the clamp.
func ParseTimeout(v string, def, max time.Duration) (time.Duration, error) {
	if max < MinTimeout {
		max = MinTimeout
	}
	if v == "" {
		return clampTimeout(def, max), nil
	}
	if len(v) > 64 {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadTimeout, len(v))
	}
	// Bare integers are milliseconds (the common proxy convention);
	// everything else must be a Go duration.
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		if ms <= 0 {
			return 0, fmt.Errorf("%w: %q", ErrBadTimeout, v)
		}
		if ms > int64(max/time.Millisecond) {
			return max, nil
		}
		return clampTimeout(time.Duration(ms)*time.Millisecond, max), nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("%w: %q", ErrBadTimeout, v)
	}
	return clampTimeout(d, max), nil
}

func clampTimeout(d, max time.Duration) time.Duration {
	if d < MinTimeout {
		return MinTimeout
	}
	if d > max {
		return max
	}
	return d
}

// ParseClientID sanitizes an X-Client-Id header into a client key: at
// most 128 bytes of [A-Za-z0-9._-]. Anything else returns ""
// (the caller falls back to the remote host), so a hostile header can
// neither inflate label cardinality nor alias another client.
func ParseClientID(v string) string {
	if v == "" || len(v) > 128 {
		return ""
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return v
}

// ClientKey names the client a request comes from: its X-Client-Id when
// ParseClientID accepts it, the remote host otherwise — so anonymous
// clients are told apart per source address rather than sharing one
// key. Its one reader is the router's rendezvous read affinity; it lives
// here beside the other request headers.
func ClientKey(r *http.Request) string {
	if id := ParseClientID(r.Header.Get(ClientIDHeader)); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
