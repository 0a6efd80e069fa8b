package router

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/stats"
)

// readReq builds the incoming request attemptRead is handed.
func readReq(t *testing.T, ctx context.Context) *http.Request {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/v1/model", nil).WithContext(ctx)
	r.RemoteAddr = "10.0.0.9:4711"
	return r
}

func backendRequests(rt *Router, id, outcome string) int64 {
	return rt.met.backendRequests(id, outcome).Value()
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// onManualClock puts rt on a Manual clock: the test arms nothing on the
// wall, and fires the hedge by advancing the clock.
func onManualClock(rt *Router) *clock.Manual {
	clk := clock.NewManual(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
	rt.clock = clk
	return clk
}

type attemptResult struct {
	res tryResult
	err error
}

// goAttempt runs attemptRead on its own goroutine, so the test can move
// the clock and open the stubs' gates while the attempt waits on them.
func goAttempt(rt *Router, r *http.Request, primary, hedge *backend, hedgeAfter time.Duration) <-chan attemptResult {
	done := make(chan attemptResult, 1)
	go func() {
		res, err := rt.attemptRead(r, "", primary, hedge, hedgeAfter)
		done <- attemptResult{res, err}
	}()
	return done
}

// gated makes every data request to b wait until the returned channel
// is closed (or the request is canceled).
func gated(b *stubBackend) chan struct{} {
	gate := make(chan struct{})
	b.set(func(b *stubBackend) { b.gate = gate })
	return gate
}

// TestAttemptReadRaceOutcomes drives attemptRead itself through every
// way a primary and its hedge can finish, on virtual time: the hedge
// fires when the test advances the router's clock, and each backend
// answers when the test opens its gate.
func TestAttemptReadRaceOutcomes(t *testing.T) {
	const hedgeAfter = 20 * time.Millisecond

	// hedgeOut starts an attempt, waits for its primary to reach the
	// primary's stub and its hedge to be armed, then fires the hedge.
	hedgeOut := func(t *testing.T, rt *Router, ctx context.Context, primary, hedge *stubBackend) <-chan attemptResult {
		t.Helper()
		clk := onManualClock(rt)
		done := goAttempt(rt, readReq(t, ctx), rt.byURL[primary.url()], rt.byURL[hedge.url()], hedgeAfter)
		waitFor(t, "the primary to reach its backend", func() bool { return primary.hitCount() == 1 })
		clk.BlockUntil(1)
		clk.Advance(hedgeAfter)
		return done
	}

	t.Run("primary wins after the hedge fired", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		primaryGate := gated(n2)
		gated(n3) // never opens
		rt, _ := mkRouter(t, Config{}, n1, n2, n3)
		p, h := rt.byURL[n2.url()], rt.byURL[n3.url()]

		done := hedgeOut(t, rt, context.Background(), n2, n3)
		waitFor(t, "the hedge to reach its backend", func() bool { return n3.hitCount() == 1 })
		close(primaryGate)
		a := <-done
		if a.err != nil || a.res.b != p {
			t.Fatalf("attempt = backend %v, err %v; want the primary's answer", a.res.b, a.err)
		}
		body, _ := io.ReadAll(a.res.resp.Body)
		a.res.resp.Body.Close()
		a.res.cancel()
		if !strings.Contains(string(body), `"n2"`) {
			t.Fatalf("relayed body %q is not the primary's", body)
		}
		if rt.Hedges() != 1 || rt.met.hedgeWins.Value() != 0 {
			t.Fatalf("hedges %d, hedge wins %d; want 1, 0", rt.Hedges(), rt.met.hedgeWins.Value())
		}
		// The losing hedge is canceled at once, not left waiting on its
		// gate, and is not a failure of its backend.
		waitFor(t, "the hedge's cancellation", func() bool { return n3.canceledCount() == 1 })
		if got := backendRequests(rt, "n3", "error"); got != 0 {
			t.Fatalf("the canceled hedge was counted as %d backend errors", got)
		}
		if h.observeFailure() != 1 {
			t.Fatal("the canceled hedge left a failure streak on its backend")
		}
	})

	t.Run("hedge wins", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		gated(n2) // never opens: only the primary's cancellation ends it
		rt, _ := mkRouter(t, Config{}, n1, n2, n3)
		h := rt.byURL[n3.url()]

		a := <-hedgeOut(t, rt, context.Background(), n2, n3)
		if a.err != nil || a.res.b != h {
			t.Fatalf("attempt = backend %v, err %v; want the hedge's answer", a.res.b, a.err)
		}
		// By the time attemptRead returns, the primary's context is dead
		// and its Do has returned — on the attempt's goroutine.
		waitFor(t, "the primary's cancellation", func() bool { return n2.canceledCount() == 1 })
		a.res.resp.Body.Close()
		a.res.cancel()
		if rt.Hedges() != 1 || rt.met.hedgeWins.Value() != 1 {
			t.Fatalf("hedges %d, hedge wins %d; want 1, 1", rt.Hedges(), rt.met.hedgeWins.Value())
		}
		if got := backendRequests(rt, "n2", "error"); got != 0 {
			t.Fatalf("the canceled primary was counted as %d backend errors", got)
		}
		if got := backendRequests(rt, "n3", "ok"); got != 1 {
			t.Fatalf("backend_requests{n3,ok} = %d, want 1", got)
		}
	})

	t.Run("both fail, primary last", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		primaryGate := gated(n2)
		n2.set(func(b *stubBackend) { b.failReads = true })
		n3.set(func(b *stubBackend) { b.downFlag = true })
		rt, _ := mkRouter(t, Config{EjectThreshold: 100}, n1, n2, n3)
		p, h := rt.byURL[n2.url()], rt.byURL[n3.url()]

		done := hedgeOut(t, rt, context.Background(), n2, n3)
		waitFor(t, "the hedge's failure", func() bool { return backendRequests(rt, "n3", "error") == 1 })
		close(primaryGate)
		if a := <-done; a.err == nil || !strings.Contains(a.err.Error(), "backend n2 answered 500") {
			t.Fatalf("err = %v; want the primary's 500, the later of the two failures", a.err)
		}
		if p.observeFailure() != 2 || h.observeFailure() != 2 {
			t.Fatal("both backends must carry one failure each")
		}
		if backendRequests(rt, "n2", "error") != 1 || backendRequests(rt, "n3", "error") != 1 {
			t.Fatal("both failures must be counted")
		}
	})

	t.Run("both fail, hedge last", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		primaryGate, hedgeGate := gated(n2), gated(n3)
		n2.set(func(b *stubBackend) { b.failReads = true })
		n3.set(func(b *stubBackend) { b.failReads = true })
		rt, _ := mkRouter(t, Config{EjectThreshold: 100}, n1, n2, n3)
		p, h := rt.byURL[n2.url()], rt.byURL[n3.url()]

		done := hedgeOut(t, rt, context.Background(), n2, n3)
		waitFor(t, "the hedge to reach its backend", func() bool { return n3.hitCount() == 1 })
		close(primaryGate)
		waitFor(t, "the primary's failure", func() bool { return backendRequests(rt, "n2", "error") == 1 })
		close(hedgeGate)
		if a := <-done; a.err == nil || !strings.Contains(a.err.Error(), "backend n3 answered 500") {
			t.Fatalf("err = %v; want the hedge's 500, the later of the two failures", a.err)
		}
		if p.observeFailure() != 2 || h.observeFailure() != 2 {
			t.Fatal("both backends must carry one failure each")
		}
	})

	t.Run("primary fails, hedge answers", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		primaryGate, hedgeGate := gated(n2), gated(n3)
		n2.set(func(b *stubBackend) { b.failReads = true })
		rt, _ := mkRouter(t, Config{EjectThreshold: 100}, n1, n2, n3)
		h := rt.byURL[n3.url()]

		done := hedgeOut(t, rt, context.Background(), n2, n3)
		waitFor(t, "the hedge to reach its backend", func() bool { return n3.hitCount() == 1 })
		close(primaryGate)
		waitFor(t, "the primary's failure", func() bool { return backendRequests(rt, "n2", "error") == 1 })
		close(hedgeGate)
		a := <-done
		if a.err != nil || a.res.b != h {
			t.Fatalf("attempt = backend %v, err %v; want the hedge's answer", a.res.b, a.err)
		}
		a.res.resp.Body.Close()
		a.res.cancel()
		if rt.met.hedgeWins.Value() != 1 || backendRequests(rt, "n2", "error") != 1 {
			t.Fatal("want one hedge win and the primary's failure counted")
		}
	})

	t.Run("primary fails before the hedge delay", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		n2.set(func(b *stubBackend) { b.failReads = true })
		rt, _ := mkRouter(t, Config{}, n1, n2, n3)
		clk := onManualClock(rt)
		before := n3.hitCount()
		_, err := rt.attemptRead(readReq(t, context.Background()), "", rt.byURL[n2.url()], rt.byURL[n3.url()], hedgeAfter)
		if err == nil {
			t.Fatal("a 500 from the primary must fail the attempt")
		}
		// The retry loop, not the hedge, owns the next candidate: the
		// attempt took its timer with it.
		clk.Advance(hedgeAfter)
		if rt.Hedges() != 0 || n3.hitCount() != before {
			t.Fatal("a hedge was launched for an attempt that was already over")
		}
	})

	t.Run("client cancels mid-attempt", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		gated(n2) // neither gate opens
		gated(n3)
		rt, _ := mkRouter(t, Config{}, n1, n2, n3)
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		done := hedgeOut(t, rt, ctx, n2, n3)
		waitFor(t, "the hedge to reach its backend", func() bool { return n3.hitCount() == 1 })
		cancel()
		if a := <-done; !errors.Is(a.err, context.Canceled) {
			t.Fatalf("err = %v, want the client's cancellation", a.err)
		}
		waitFor(t, "both backends to see the cancellation", func() bool {
			return n2.canceledCount() == 1 && n3.canceledCount() == 1
		})
		waitFor(t, "the attempt's goroutines to end", func() bool { return runtime.NumGoroutine() <= baseline+2 })
	})

	t.Run("no hedge candidate", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		primaryGate := gated(n2)
		rt, _ := mkRouter(t, Config{}, n1, n2, n3)
		clk := onManualClock(rt)
		done := goAttempt(rt, readReq(t, context.Background()), rt.byURL[n2.url()], nil, time.Millisecond)
		waitFor(t, "the primary to reach its backend", func() bool { return n2.hitCount() == 1 })
		clk.Advance(forwardTimeout - time.Nanosecond) // far past any hedge delay, short of the deadline
		close(primaryGate)
		a := <-done
		if a.err != nil || a.res.b.member.ID != "n2" {
			t.Fatalf("attempt = %v, %v; want n2's answer", a.res.b, a.err)
		}
		a.res.resp.Body.Close()
		a.res.cancel()
		if rt.Hedges() != 0 {
			t.Fatal("a read with nothing to hedge to launched a hedge")
		}
	})

	t.Run("forward deadline", func(t *testing.T) {
		n1, n2, n3 := threeNode(t)
		gated(n2) // never opens: only the deadline ends the attempt
		rt, _ := mkRouter(t, Config{}, n1, n2, n3)
		clk := onManualClock(rt)
		done := goAttempt(rt, readReq(t, context.Background()), rt.byURL[n2.url()], nil, 0)
		waitFor(t, "the primary to reach its backend", func() bool { return n2.hitCount() == 1 })
		clk.Advance(forwardTimeout - time.Nanosecond)
		select {
		case a := <-done:
			t.Fatalf("attempt ended before its deadline: %v", a.err)
		case <-time.After(20 * time.Millisecond):
		}
		clk.Advance(time.Nanosecond)
		select {
		case a := <-done:
			if !errors.Is(a.err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want the forward deadline", a.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the forward deadline did not fire on Advance")
		}
		waitFor(t, "the backend to see the cancellation", func() bool { return n2.canceledCount() == 1 })
	})
}

// TestStaleReadIsNotHedged: a brownout read has one candidate, and the
// front door must hand attemptRead no hedge for it however slow it is.
func TestStaleReadIsNotHedged(t *testing.T) {
	n1, n2, _ := threeNode(t)
	n1.set(func(b *stubBackend) { b.downFlag = true })
	n2.set(func(b *stubBackend) { b.lag = 60; b.delay = 40 * time.Millisecond })
	rt, front := mkRouter(t, Config{MaxReadLag: time.Second, HedgeAfterMin: time.Millisecond}, n1, n2)
	resp, body := get(t, front, "/v1/model", "k")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(StalenessHeader) == "" {
		t.Fatalf("stale read: status %d, staleness %q (%s)", resp.StatusCode, resp.Header.Get(StalenessHeader), body)
	}
	if rt.Hedges() != 0 {
		t.Fatalf("a stale read launched %d hedges", rt.Hedges())
	}
}

// TestUnhedgedReadsLeaveNoGoroutines: the common read makes no
// goroutine of its own, so a thousand of them leave the count where it
// was (the old attempt spawned one per read and reaped it).
func TestUnhedgedReadsLeaveNoGoroutines(t *testing.T) {
	n1, n2, n3 := threeNode(t)
	rt, front := mkRouter(t, Config{}, n1, n2, n3)
	get(t, front, "/v1/model", "warm") // connections and their loops exist now
	baseline := runtime.NumGoroutine()
	peak := baseline
	for i := 0; i < 1000; i++ {
		resp, _ := get(t, front, "/v1/model", "warm")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	if rt.Hedges() != 0 {
		t.Fatalf("%d hedges on a healthy local fleet", rt.Hedges())
	}
	waitFor(t, "the goroutine count to settle", func() bool { return runtime.NumGoroutine() <= baseline })
	if peak > baseline+2 {
		t.Fatalf("goroutines peaked at %d over a baseline of %d: a read is spawning", peak, baseline)
	}
}

// TestReadRelaysBackendRedirectWithoutFollowing: a backend's 3xx goes
// back to the caller as it is. Following it — http.Client's default —
// would take the read outside the membership every request is held to.
func TestReadRelaysBackendRedirectWithoutFollowing(t *testing.T) {
	var outsiderHits atomic.Int64
	outsider := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		outsiderHits.Add(1)
		io.WriteString(w, `{"backend":"outsider"}`)
	}))
	defer outsider.Close()
	redirector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, `{"status":"ok","replication":{"role":"follower","follower":{"state":"ok"}}}`)
			return
		}
		http.Redirect(w, r, outsider.URL+"/elsewhere", http.StatusFound)
	}))
	defer redirector.Close()

	caller := &http.Client{}
	rt, err := New(Config{
		Backends:      []cluster.Member{{ID: "n1", URL: redirector.URL}},
		HTTP:          caller,
		HedgeAfterMin: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.RefreshNow(context.Background())
	front := httptest.NewServer(rt)
	defer front.Close()

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Get(front.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound || resp.Header.Get("Location") != outsider.URL+"/elsewhere" {
		t.Fatalf("status %d, Location %q; want the backend's 302 relayed as it is", resp.StatusCode, resp.Header.Get("Location"))
	}
	if resp.Header.Get(BackendHeader) != "n1" {
		t.Fatalf("relayed redirect names backend %q", resp.Header.Get(BackendHeader))
	}
	if n := outsiderHits.Load(); n != 0 {
		t.Fatalf("the non-member received %d requests", n)
	}
	if caller.CheckRedirect != nil {
		t.Fatal("the caller's http.Client was modified")
	}
}

// TestCloneRequestTargetsWhatTheStringDid: the URL assembled from the
// parsed base is the URL the old code got by parsing base + RequestURI.
func TestCloneRequestTargetsWhatTheStringDid(t *testing.T) {
	for _, base := range []string{"http://10.1.2.3:8080", "http://node.example/prefix", "https://node.example:8443/a%2Fb"} {
		rt, err := New(Config{Backends: []cluster.Member{{ID: "n1", URL: base + "/"}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []string{
			"/v1/classify/job-1", "/v1/classify?start=2024-01-01T00:00:00Z&limit=2", "/v1/classify/a%2Fb?x=%20y",
			"/", "/v1/model?", "/caf%C3%A9/x%20y", "/v1/a;b=c/d:e@f",
		} {
			r := httptest.NewRequest(http.MethodGet, "http://front.example"+target, nil)
			r.Header.Set("Connection", "keep-alive")
			r.Header.Set("X-Client-Id", "t1")
			want, err := http.NewRequest(http.MethodGet, base+r.URL.RequestURI(), nil)
			if err != nil {
				t.Fatal(err)
			}
			got := rt.cloneRequest(context.Background(), r, "req-1", rt.backends[0], nil)
			if got.URL.String() != want.URL.String() || got.Host != want.Host || got.URL.RequestURI() != want.URL.RequestURI() {
				t.Errorf("%s + %s: cloned %s (host %s), the string form gave %s (host %s)",
					base, target, got.URL, got.Host, want.URL, want.Host)
			}
			if got.Header.Get("Connection") != "" || got.Header.Get("X-Client-Id") != "t1" || got.Header.Get("X-Forwarded-For") == "" || got.Header.Get("X-Request-Id") != "req-1" {
				t.Errorf("cloned headers %v", got.Header)
			}
		}
	}
	if _, err := New(Config{Backends: []cluster.Member{{ID: "n1", URL: "not a url"}}}); err == nil {
		t.Error("a backend URL without a host must be refused at New")
	}
}

func TestRendezvousScoreIsFinalizedFNV1a(t *testing.T) {
	rng := stats.NewRNG(9)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("n%d", rng.Intn(50))
		key := strings.Repeat("k", rng.Intn(4)) + fmt.Sprint(rng.Uint64())
		h := fnv.New64a()
		h.Write([]byte(id))
		h.Write([]byte{0})
		h.Write([]byte(key))
		if got, want := rendezvousScore(id, key), mix64(h.Sum64()); got != want {
			t.Fatalf("score(%q, %q) = %#x, hash/fnv gives %#x", id, key, got, want)
		}
	}
}

// benchFleet is a leader and a follower that answer like a by-ID
// classify, behind a router, all over loopback.
func benchFleet(b *testing.B) (front *httptest.Server, hc *http.Client) {
	b.Helper()
	const answer = `{"id":"j-1","class":"memory-bound","model":"rf","model_version":3}` + "\n"
	node := func(role string, leaderURL *string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/healthz" {
				fmt.Fprintf(w, `{"status":"ok","replication":{"role":%q,"leader":%q,"follower":{"state":"ok"}}}`, role, *leaderURL)
				return
			}
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, answer)
		}))
		b.Cleanup(srv.Close)
		return srv
	}
	var leaderURL string
	leader := node("leader", &leaderURL)
	leaderURL = leader.URL
	follower := node("follower", &leaderURL)
	tr := &http.Transport{MaxIdleConnsPerHost: 8}
	b.Cleanup(tr.CloseIdleConnections)
	rt, err := New(Config{
		Backends: []cluster.Member{{ID: "n1", URL: leader.URL}, {ID: "n2", URL: follower.URL}},
		HTTP:     &http.Client{Transport: tr},
	})
	if err != nil {
		b.Fatal(err)
	}
	rt.RefreshNow(context.Background())
	front = httptest.NewServer(rt)
	b.Cleanup(front.Close)
	return front, front.Client()
}

// BenchmarkReadHop is one routed GET end to end — client, router,
// follower and back, two loopback round trips — with the allocations of
// all three parties, which share the process.
func BenchmarkReadHop(b *testing.B) {
	front, hc := benchFleet(b)
	var once sync.Once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Get(front.URL + "/v1/classify/j-1")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		once.Do(func() {
			if resp.StatusCode != http.StatusOK || resp.Header.Get(BackendHeader) != "n2" {
				b.Fatalf("status %d from %q, want 200 from the follower", resp.StatusCode, resp.Header.Get(BackendHeader))
			}
		})
	}
}

// BenchmarkWriteHop is one routed single-job POST: the body is buffered
// by the router and forwarded to the leader.
func BenchmarkWriteHop(b *testing.B) {
	front, hc := benchFleet(b)
	const body = `[{"id":"j-1","user":"u1","name":"vapp","cores_req":48,"nodes_req":1,"freq_req":2000,"submit":"2024-02-01T00:00:00Z"}]`
	var once sync.Once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Post(front.URL+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		once.Do(func() {
			if resp.StatusCode != http.StatusOK || resp.Header.Get(BackendHeader) != "n1" {
				b.Fatalf("status %d from %q, want 200 from the leader", resp.StatusCode, resp.Header.Get(BackendHeader))
			}
		})
	}
}
