package peer_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/election"
	"mcbound/internal/peer"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/wal"
)

// fleet is a handful of stub members; member 0 is the one called.
type fleet struct {
	urls     []string
	hits     []atomic.Int32
	handlers []http.HandlerFunc
}

func newFleet(t *testing.T, n int) *fleet {
	f := &fleet{urls: make([]string, n), hits: make([]atomic.Int32, n), handlers: make([]http.HandlerFunc, n)}
	for i := range n {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.hits[i].Add(1)
			f.handlers[i](w, r)
		}))
		t.Cleanup(srv.Close)
		f.urls[i] = srv.URL
	}
	return f
}

func answer(status int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		io.WriteString(w, body)
	}
}

// notLeader answers like httpapi's leaderOnly guard: a 421 envelope
// whose Location is the same path on member to (none when to < 0).
func (f *fleet) notLeader(to int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if to >= 0 {
			w.Header().Set("Location", f.urls[to]+r.URL.RequestURI())
		}
		answer(http.StatusMisdirectedRequest, `{"error":"not the leader","code":"not_leader"}`)(w, r)
	}
}

// Each client reads a body up to its own limit; the over-the-limit row
// is sized to whichever client is calling.
const (
	peerLimit  = 512
	replLimit  = wal.MaxChunkBytes + 4096
	electLimit = 1 << 16
)

// row is one thing a member can answer, and what the peer client and
// the two clients built on it must make of it. The repl and election
// columns are what each client did with that answer at the parent of
// the PR that moved them onto internal/peer.
type row struct {
	name string
	// members is how many stubs the row needs.
	members int
	arm     func(f *fleet, limit int64)

	// peer.Do on member 0: ok, or an *Error with these fields, or
	// ErrBody, or (none of them) the transport's own error.
	ok        bool
	status    int
	code      string
	retryable bool
	errBody   bool

	// repl.Client.Manifest on member 0 under a 3-attempt policy and a
	// breaker that opens on its first recorded failure.
	replSentinel  error // nil with replOK false: an error, no sentinel
	replOK        bool
	replAttempts  int32 // requests member 0 saw
	replPermanent bool
	replTripped   bool

	// election.HTTPTransport.GetLease on member 0: everything but a
	// lease is one missed read, retried once.
	electOK bool
}

var rows = []row{
	{
		name: "200", members: 1,
		arm:    func(f *fleet, _ int64) { f.handlers[0] = answer(200, `{}`) },
		ok:     true,
		replOK: true, replAttempts: 1,
		electOK: true,
	},
	{
		name: "404", members: 1,
		arm:    func(f *fleet, _ int64) { f.handlers[0] = answer(404, `{"error":"no such file","code":"not_found"}`) },
		status: 404, code: "not_found",
		replSentinel: repl.ErrGone, replAttempts: 1, replPermanent: true,
	},
	// A 421 is one of the leader's two answers whatever its Location
	// names: member 1 is a live leader, and no client goes there. There
	// is no membership to check the Location against: the stubs differ
	// only in what the row's name says of them.
	{
		name: "421 without a Location", members: 2,
		arm: func(f *fleet, _ int64) {
			f.handlers[0], f.handlers[1] = f.notLeader(-1), answer(200, `{}`)
		},
		status: 421, code: "not_leader",
		replSentinel: repl.ErrSourceNotLeader, replAttempts: 1, replPermanent: true,
	},
	{
		name: "421 with Location inside the membership", members: 2,
		arm: func(f *fleet, _ int64) {
			f.handlers[0], f.handlers[1] = f.notLeader(1), answer(200, `{}`)
		},
		status: 421, code: "not_leader",
		replSentinel: repl.ErrSourceNotLeader, replAttempts: 1, replPermanent: true,
	},
	{
		name: "421 with Location outside the membership", members: 2,
		arm: func(f *fleet, _ int64) {
			f.handlers[0], f.handlers[1] = f.notLeader(1), answer(200, `{}`)
		},
		status: 421, code: "not_leader",
		replSentinel: repl.ErrSourceNotLeader, replAttempts: 1, replPermanent: true,
	},
	{
		name: "429", members: 1,
		arm:    func(f *fleet, _ int64) { f.handlers[0] = answer(429, `{"error":"slow down","code":"rate_limited"}`) },
		status: 429, code: "rate_limited", retryable: true,
		replAttempts: 3, replTripped: true,
	},
	{
		name: "500", members: 1,
		arm:    func(f *fleet, _ int64) { f.handlers[0] = answer(500, `{"error":"boom","code":"internal"}`) },
		status: 500, code: "internal", retryable: true,
		replAttempts: 3, replTripped: true,
	},
	{
		name: "503 with a typed code", members: 1,
		arm:    func(f *fleet, _ int64) { f.handlers[0] = answer(503, `{"error":"lease lost","code":"lease_lost"}`) },
		status: 503, code: "lease_lost", retryable: true,
		replAttempts: 3, replTripped: true,
	},
	{
		// Not a retryable status, so repl.Client gives up at once — and,
		// not being one of the leader's two answers, it is a failure.
		name: "an undecodable envelope", members: 1,
		arm:          func(f *fleet, _ int64) { f.handlers[0] = answer(400, "<html>Bad Request</html>") },
		status:       400,
		replAttempts: 1, replPermanent: true, replTripped: true,
	},
	{
		// The parent's clients cut such a body at the limit and decoded
		// what was left; the peer client refuses it, and the refusal is
		// retried like any other answer that did not arrive.
		name: "a body one byte over the limit", members: 1,
		arm: func(f *fleet, limit int64) {
			f.handlers[0] = answer(200, strings.Repeat(" ", int(limit)-1)+`{}`)
		},
		errBody:      true,
		replAttempts: 3, replTripped: true,
	},
	{
		name: "a transport error", members: 1,
		arm: func(f *fleet, _ int64) {
			f.handlers[0] = func(w http.ResponseWriter, _ *http.Request) {
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
			}
		},
		replAttempts: 3, replTripped: true,
	},
}

// The peer client's own reading of each answer.
func TestClassification(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newFleet(t, r.members)
			r.arm(f, peerLimit)
			body, _, err := peer.Do(context.Background(), http.DefaultClient,
				peer.Call{Method: http.MethodGet, URL: f.urls[0] + "/v1/wal/segments", Limit: peerLimit})
			var answer *peer.Error
			switch {
			case r.ok:
				if err != nil || !strings.HasSuffix(string(body), `{}`) {
					t.Fatalf("body %q, err %v; want the 200 body", body, err)
				}
			case r.errBody:
				if !errors.Is(err, peer.ErrBody) || errors.As(err, &answer) {
					t.Fatalf("err %v, want ErrBody", err)
				}
			case r.status == 0:
				if err == nil || errors.Is(err, peer.ErrBody) || errors.As(err, &answer) {
					t.Fatalf("err %v, want the transport's error", err)
				}
			default:
				if !errors.As(err, &answer) {
					t.Fatalf("err %v, want a *peer.Error", err)
				}
				if answer.Status != r.status || answer.Code != r.code || answer.Retryable() != r.retryable {
					t.Fatalf("classified %+v (retryable %t), want status %d code %q retryable %t",
						answer, answer.Retryable(), r.status, r.code, r.retryable)
				}
				if answer.Message == "" || len(answer.Body) == 0 {
					t.Fatalf("answer lost its text: %+v", answer)
				}
			}
		})
	}
}

// The same answers through the replication client: which sentinel, is it
// retried, and what the breaker is told.
func TestClassificationThroughReplClient(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newFleet(t, r.members)
			r.arm(f, replLimit)
			c := repl.NewClient(repl.ClientConfig{
				BaseURL: f.urls[0],
				Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
				Breaker: resilience.BreakerConfig{FailureThreshold: 1},
			})
			_, err := c.Manifest(context.Background())
			switch {
			case r.replOK && err != nil:
				t.Fatalf("err %v, want the manifest", err)
			case !r.replOK && err == nil:
				t.Fatal("no error")
			case r.replSentinel != nil && !errors.Is(err, r.replSentinel):
				t.Fatalf("err %v, want %v", err, r.replSentinel)
			case r.replSentinel == nil && (errors.Is(err, repl.ErrGone) || errors.Is(err, repl.ErrSourceNotLeader)):
				t.Fatalf("err %v carries a sentinel, want none", err)
			}
			if got := resilience.IsPermanent(err); got != r.replPermanent {
				t.Errorf("permanent = %t, want %t (%v)", got, r.replPermanent, err)
			}
			if got := f.hits[0].Load(); got != r.replAttempts {
				t.Errorf("member 0 saw %d requests, want %d", got, r.replAttempts)
			}
			if got := c.Breaker().State() == resilience.Open; got != r.replTripped {
				t.Errorf("breaker tripped = %t, want %t", got, r.replTripped)
			}
			for i := 1; i < r.members; i++ {
				if got := f.hits[i].Load(); got != 0 {
					t.Errorf("member %d saw %d requests, want none", i, got)
				}
			}
			if got := c.Base(); got != f.urls[0] {
				t.Errorf("based at %s afterwards, want member 0 (%s)", got, f.urls[0])
			}
		})
	}
}

// And through the elector's transport, which has no sentinels and no
// breaker: a lease, or one retried miss.
func TestClassificationThroughElectionTransport(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newFleet(t, r.members)
			r.arm(f, electLimit)
			tr := election.NewHTTPTransport(nil, nil, 1)
			_, err := tr.GetLease(context.Background(), f.urls[0])
			if (err == nil) != r.electOK {
				t.Fatalf("err %v, want ok=%t", err, r.electOK)
			}
			want := int32(2)
			if r.electOK {
				want = 1
			}
			if got := f.hits[0].Load(); got != want {
				t.Errorf("member 0 saw %d requests, want %d", got, want)
			}
			if resilience.IsPermanent(err) {
				t.Errorf("permanent error %v: the elector retries whatever is not a lease", err)
			}
		})
	}
}
