package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/peer"
)

// laggyBackend delays single-job lookups, making GET /v1/classify/{id}
// a measurable unit of service time for overload experiments. It also
// counts concurrent entries so tests can verify the process never runs
// more work at once than the configured concurrency bound.
type laggyBackend struct {
	fetch.Backend
	delay      time.Duration
	inflight   atomic.Int64
	maxSeen    atomic.Int64
	totalCalls atomic.Int64
}

func (b *laggyBackend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	cur := b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.totalCalls.Add(1)
	for {
		max := b.maxSeen.Load()
		if cur <= max || b.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.Backend.JobByID(ctx, id)
}

func doGet(t *testing.T, client *http.Client, url string, header map[string]string) (*http.Response, peer.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body peer.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp, body
}

func TestOverloadBadTimeoutHeaderIs400(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := doGet(t, http.DefaultClient, srv.URL+"/v1/model",
		map[string]string{admission.TimeoutHeader: "soon"})
	if resp.StatusCode != http.StatusBadRequest || body.Code != codeBadRequest {
		t.Fatalf("status %d code %q, want 400 %q", resp.StatusCode, body.Code, codeBadRequest)
	}
}

func TestOverloadHealthzAlwaysAdmitted(t *testing.T) {
	st := seedStore(t)
	backend := &laggyBackend{Backend: fetch.StoreBackend{Store: st}, delay: 300 * time.Millisecond}
	adm := admission.NewController(admission.Config{MaxConcurrency: 1, QueueDepth: 1})
	srv := httptest.NewServer(newAPI(t, st, backend, true, Options{Admission: adm}))
	t.Cleanup(srv.Close)

	// Saturate the single slot and fill the queue.
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			resp, err := http.Get(srv.URL + "/v1/classify/s0000")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for adm.Inflight() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The health probe answers 200 while inference is saturated, and it
	// travels the instrumented chain (X-Request-Id present).
	resp, _ := doGet(t, http.DefaultClient, srv.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("healthz skipped the request wrapper")
	}
	wg.Wait()
	if s := adm.Stats(); s.Bypassed == 0 {
		t.Fatalf("health probe not accounted as bypassed: %+v", s)
	}
}

func TestOverloadQueueFullIsTyped503(t *testing.T) {
	st := seedStore(t)
	backend := &laggyBackend{Backend: fetch.StoreBackend{Store: st}, delay: 200 * time.Millisecond}
	adm := admission.NewController(admission.Config{MaxConcurrency: 1, QueueDepth: 1})
	srv := httptest.NewServer(newAPI(t, st, backend, true, Options{Admission: adm}))
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/classify/s0000")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (adm.Inflight() < 1 || adm.QueueLen() < 1) {
		time.Sleep(time.Millisecond)
	}

	resp, body := doGet(t, http.DefaultClient, srv.URL+"/v1/classify/s0000", nil)
	wg.Wait()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Code != codeOverloaded {
		t.Fatalf("status %d code %q, want 503 %q", resp.StatusCode, body.Code, codeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
}

// The request wrapper sets the deadline on the server's clock: on a Manual
// clock an hour ahead of the wall, a queued request with a 2 s budget is
// shed as doomed when that clock crosses it, and not before.
func TestGuardDeadlineShedsQueuedRequestOnVirtualTime(t *testing.T) {
	st := seedStore(t)
	clk := clock.NewManual(time.Now().Add(time.Hour))
	backend := &laggyBackend{Backend: fetch.StoreBackend{Store: st}, delay: time.Hour}
	adm := admission.NewController(admission.Config{MaxConcurrency: 1, QueueDepth: 1, Clock: clk})
	api := newAPI(t, st, backend, true, Options{Admission: adm, Clock: clk})
	serve := func(timeout string) <-chan *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/classify/s0000", nil)
		if timeout != "" {
			req.Header.Set(admission.TimeoutHeader, timeout)
		}
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, req)
			done <- rec
		}()
		return done
	}
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	held := serve("") // holds the one slot until its own 10 s deadline
	until("the slot to be held", func() bool { return backend.inflight.Load() == 1 })
	queued := serve("2s")
	until("the second request to queue", func() bool { return adm.QueueLen() == 1 })
	clk.Advance(2*time.Second - time.Nanosecond)
	select {
	case rec := <-queued:
		t.Fatalf("answered %d before its deadline: %s", rec.Code, rec.Body)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	select {
	case rec := <-queued:
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), codeOverloaded) {
			t.Fatalf("status %d: %s; want 503 %s", rec.Code, rec.Body, codeOverloaded)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the request deadline did not fire on Advance")
	}
	if s := adm.Stats(); s.ShedDoomed != 1 || s.ShedCanceled != 0 {
		t.Fatalf("shed doomed %d, canceled %d; want 1, 0", s.ShedDoomed, s.ShedCanceled)
	}
	clk.Advance(DefaultDeadline) // the held request's own deadline ends it
	<-held
}

// TestOverloadBurst is the acceptance scenario: a 10× overload burst
// against a small concurrency budget. It verifies that (1) the process
// never runs more concurrent work than the configured bound, (2) the
// p99 of admitted requests stays within 5× the unloaded p99, (3) every
// rejection is a typed 503 with Retry-After, (4) the shed
// accounting reconciles exactly, and (5) a retrain admitted during the
// burst completes while inference goodput stays above zero.
func TestOverloadBurst(t *testing.T) {
	const (
		maxConc    = 4
		queueDepth = 6
		warmN      = 64           // one full p95 window
		clients    = 10 * maxConc // 10× the concurrency budget, sustained
		perClient  = 6
		burstN     = clients * perClient
		doomedN    = 10
	)
	st := seedStore(t)
	backend := &laggyBackend{Backend: fetch.StoreBackend{Store: st}, delay: 20 * time.Millisecond}
	adm := admission.NewController(admission.Config{MaxConcurrency: maxConc, QueueDepth: queueDepth})
	srv := httptest.NewServer(newAPI(t, st, backend, true, Options{Admission: adm}))
	t.Cleanup(srv.Close)
	client := &http.Client{Timeout: 30 * time.Second}

	classify := func(i int, header map[string]string) (int, string, time.Duration) {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/classify/s%04d", srv.URL, i%200), nil)
		if err != nil {
			t.Error(err)
			return 0, "", 0
		}
		for k, v := range header {
			req.Header.Set(k, v)
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return 0, "", 0
		}
		defer resp.Body.Close()
		var body peer.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(t0)
	}

	// Phase 1 — unloaded: measure the baseline p99 and warm the p95
	// service-time estimator (doomed shedding is off while cold).
	var unloaded []time.Duration
	for i := 0; i < warmN; i++ {
		code, _, d := classify(i, nil)
		if code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, code)
		}
		unloaded = append(unloaded, d)
	}
	sort.Slice(unloaded, func(i, j int) bool { return unloaded[i] < unloaded[j] })
	unloadedP99 := unloaded[len(unloaded)*99/100]
	if p95 := adm.P95(); p95 <= 0 {
		t.Fatalf("p95 estimator still cold after %d requests", warmN)
	}
	before := adm.Stats()

	// Phase 2 — the burst: burstN concurrent classifies, doomedN probes
	// with a 2ms budget (below the ~20ms p95: pre-doomed), one retrain.
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		admittedLat []time.Duration
		okN         int64
		rejectedN   int64
		badReject   []string
	)
	wg.Add(1)
	trainDone := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := client.Post(srv.URL+"/v1/train", "application/json",
			strings.NewReader(`{"now":"2024-01-15T00:00:00Z"}`))
		if err != nil {
			t.Error(err)
			trainDone <- 0
			return
		}
		resp.Body.Close()
		trainDone <- resp.StatusCode
	}()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := w*perClient + k
				var header map[string]string
				if k == 0 && w < doomedN {
					// A 2ms budget against a ~20ms p95: pre-doomed.
					header = map[string]string{admission.TimeoutHeader: "2"}
				}
				code, retryAfter, d := classify(i, header)
				mu.Lock()
				switch code {
				case http.StatusOK:
					okN++
					admittedLat = append(admittedLat, d)
				case http.StatusServiceUnavailable:
					rejectedN++
					if retryAfter == "" {
						badReject = append(badReject, fmt.Sprintf("req %d: %d without Retry-After", i, code))
					}
				default:
					badReject = append(badReject, fmt.Sprintf("req %d: unexpected status %d", i, code))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// (5) The retrain completed and inference goodput stayed above zero.
	if code := <-trainDone; code != http.StatusOK {
		t.Errorf("retrain during burst: status %d, want 200", code)
	}
	if okN == 0 {
		t.Fatal("goodput dropped to zero during the burst")
	}
	// (3) Every rejection was a typed 503 with Retry-After.
	for _, msg := range badReject {
		t.Error(msg)
	}
	// (1) Concurrency stayed within the configured bound.
	if max := backend.maxSeen.Load(); max > maxConc {
		t.Errorf("observed %d concurrent backend calls, bound is %d", max, maxConc)
	}
	// (2) Admitted p99 within 5× the unloaded p99.
	sort.Slice(admittedLat, func(i, j int) bool { return admittedLat[i] < admittedLat[j] })
	admittedP99 := admittedLat[len(admittedLat)*99/100]
	if admittedP99 > 5*unloadedP99 {
		t.Errorf("admitted p99 %v exceeds 5× unloaded p99 %v", admittedP99, unloadedP99)
	}
	// (4) Exact shed accounting: client-observed outcomes reconcile with
	// the controller's books, and the identity holds with no cancels.
	after := adm.Stats()
	d := admission.Stats{
		Offered:       after.Offered - before.Offered,
		Admitted:      after.Admitted - before.Admitted,
		ShedQueueFull: after.ShedQueueFull - before.ShedQueueFull,
		ShedDoomed:    after.ShedDoomed - before.ShedDoomed,
		ShedCanceled:  after.ShedCanceled - before.ShedCanceled,
	}
	if d.Offered != burstN+1 { // +1 for the retrain
		t.Errorf("offered = %d, want %d", d.Offered, burstN+1)
	}
	if d.ShedCanceled != 0 {
		t.Errorf("shed(canceled) = %d, want 0 (no client canceled)", d.ShedCanceled)
	}
	if got := d.Admitted + d.ShedQueueFull + d.ShedDoomed; got != d.Offered {
		t.Errorf("admitted %d + shed(queue_full) %d + shed(doomed) %d = %d, want offered %d",
			d.Admitted, d.ShedQueueFull, d.ShedDoomed, got, d.Offered)
	}
	if d.Admitted != okN+1 { // +1: the admitted retrain
		t.Errorf("controller admitted %d, clients saw %d successes (+1 retrain)", d.Admitted, okN)
	}
	if d.ShedDoomed < doomedN {
		t.Errorf("shed(doomed) = %d, want >= %d (every 2ms probe is pre-doomed)", d.ShedDoomed, doomedN)
	}
	if rejectedN != d.ShedQueueFull+d.ShedDoomed {
		t.Errorf("clients saw %d rejections, controller shed %d",
			rejectedN, d.ShedQueueFull+d.ShedDoomed)
	}
	t.Logf("burst: offered=%d admitted=%d shed(queue_full)=%d shed(doomed)=%d unloaded_p99=%v admitted_p99=%v",
		d.Offered, d.Admitted, d.ShedQueueFull, d.ShedDoomed, unloadedP99, admittedP99)
}
