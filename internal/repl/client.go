package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/peer"
	"mcbound/internal/resilience"
	"mcbound/internal/wal"
)

// EpochHeader carries the leader's fencing epoch on every replication
// response, so a follower can reject bytes from a deposed leader even
// when the body itself is valid.
const EpochHeader = "X-MCBound-Repl-Epoch"

// ErrGone marks a 404 from the leader: the requested file was compacted
// away (or never existed). The follower re-reads the manifest and, when
// it fell behind the compaction horizon, re-syncs from the newest
// snapshot instead of retrying the fetch.
var ErrGone = errors.New("repl: file gone on leader")

// ErrSourceNotLeader marks a 421 from the target: it is itself a
// follower and cannot serve the replication stream.
var ErrSourceNotLeader = errors.New("repl: source is not a leader")

// ClientConfig tunes the replication client. Zero values select the
// serving defaults (resilience's retry policy and breaker).
type ClientConfig struct {
	// BaseURL is the leader's address, e.g. "http://leader:8080".
	BaseURL string
	// HTTP is the client requests go out on; nil is a plain
	// &http.Client{}. Each attempt's deadline is requestTimeout on the
	// Breaker's clock, whatever the client.
	HTTP *http.Client
	// Retry is the per-request retry policy (resilience defaults apply).
	Retry resilience.Policy
	// Breaker guards the leader connection as one health state. Its
	// Clock also times the retry backoff and each attempt's deadline.
	Breaker resilience.BreakerConfig
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Budget, when non-nil, throttles retries globally: every retry
	// beyond a request's first attempt spends a token, refilled as a
	// fraction of successes. Share one bucket across clients to cap the
	// process's total retry amplification. Nil leaves retries unthrottled.
	Budget *resilience.Budget
}

// requestTimeout bounds one attempt.
const requestTimeout = 30 * time.Second

// Client fetches the replication surface of a leader under
// resilience.Guarded: jittered exponential retries per request, one
// circuit breaker for the whole connection.
// The base URL is mutable, and Redirect is the only way to move it: a
// follower's elector calls it on every leader change, so the client
// survives promotions without a restart.
type Client struct {
	mu    sync.RWMutex
	base  string
	hc    *http.Client
	retr  *resilience.Retrier
	brk   *resilience.Breaker
	clock clock.Clock
}

// NewClient builds a replication client for the leader at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	hc := cfg.HTTP
	if hc == nil {
		hc = &http.Client{}
	}
	clk := cfg.Breaker.Clock
	if clk == nil {
		clk = clock.Wall{}
	}
	return &Client{
		base:  strings.TrimRight(cfg.BaseURL, "/"),
		hc:    hc,
		retr:  resilience.NewRetrier(cfg.Retry, clk, cfg.Seed).WithBudget(cfg.Budget),
		brk:   resilience.NewBreaker(cfg.Breaker),
		clock: clk,
	}
}

// Breaker exposes the circuit breaker (health endpoints, telemetry).
func (c *Client) Breaker() *resilience.Breaker { return c.brk }

// Base returns the current target (the leader as this client knows it).
func (c *Client) Base() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

// Redirect repoints the client at a new leader and resets the breaker,
// so failures charged to the dead leader do not block the live one. The
// elector calls it on leader change.
func (c *Client) Redirect(url string) {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return
	}
	c.mu.Lock()
	changed := c.base != url
	if changed {
		c.base = url
	}
	c.mu.Unlock()
	if changed {
		c.brk.Reset()
	}
}

// isAnswer names the leader's two considered answers — the file is gone,
// ask someone else: the leader answered; the answer was "no".
func isAnswer(err error) bool {
	return errors.Is(err, ErrGone) || errors.Is(err, ErrSourceNotLeader)
}

// get issues one GET to the current base and maps the peer client's
// typed answer to what it means for replication. A 421 not_leader is
// ErrSourceNotLeader whatever Location it names: a node that can answer
// a request must not be able to steer replication traffic anywhere.
// The attempt runs under requestTimeout on the client's clock.
func (c *Client) get(ctx context.Context, path string) ([]byte, http.Header, error) {
	ctx, cancel := clock.WithTimeout(ctx, c.clock, requestTimeout)
	defer cancel()
	base := c.Base()
	body, hdr, err := peer.Do(ctx, c.hc, peer.Call{Method: http.MethodGet, URL: base + path, Limit: wal.MaxChunkBytes + 4096})
	var answer *peer.Error
	switch {
	case err == nil:
		return body, hdr, nil
	case !errors.As(err, &answer):
		// The leader was not reached, or its body broke off: retried.
		return nil, nil, err
	case answer.Status == http.StatusNotFound:
		return nil, nil, fmt.Errorf("%w: %s", ErrGone, path)
	case answer.Status == http.StatusMisdirectedRequest:
		return nil, nil, fmt.Errorf("%w: %s", ErrSourceNotLeader, base)
	case answer.Retryable():
		return nil, nil, err
	default:
		return nil, nil, resilience.Permanent(err)
	}
}

// Manifest fetches the leader's replication manifest.
func (c *Client) Manifest(ctx context.Context) (wal.Manifest, error) {
	return resilience.Guarded(ctx, c.brk, c.retr, isAnswer, func(ctx context.Context) (wal.Manifest, error) {
		body, _, err := c.get(ctx, "/v1/wal/segments")
		if err != nil {
			return wal.Manifest{}, err
		}
		var m wal.Manifest
		if err := json.Unmarshal(body, &m); err != nil {
			return wal.Manifest{}, fmt.Errorf("repl: decode manifest: %w", err)
		}
		return m, nil
	})
}

// Chunk fetches up to max bytes of a replicated file starting at off and
// returns the bytes plus the epoch the leader stamped on the response.
func (c *Client) Chunk(ctx context.Context, name string, off, max int64) ([]byte, uint64, error) {
	type chunk struct {
		data  []byte
		epoch uint64
	}
	path := "/v1/wal/segments/" + url.PathEscape(name) +
		"?offset=" + strconv.FormatInt(off, 10) + "&limit=" + strconv.FormatInt(max, 10)
	ch, err := resilience.Guarded(ctx, c.brk, c.retr, isAnswer, func(ctx context.Context) (chunk, error) {
		body, hdr, err := c.get(ctx, path)
		if err != nil {
			return chunk{}, err
		}
		epoch, perr := strconv.ParseUint(hdr.Get(EpochHeader), 10, 64)
		if perr != nil {
			return chunk{}, fmt.Errorf("repl: bad %s header %q", EpochHeader, hdr.Get(EpochHeader))
		}
		return chunk{data: body, epoch: epoch}, nil
	})
	return ch.data, ch.epoch, err
}
