// Package router is the cluster's front door: a dependency-free HTTP
// proxy that spreads reads across healthy followers, forwards writes to
// the lease-holding leader, and keeps tail latency flat when part of
// the fleet misbehaves. Its four levers, in the order a request meets
// them: health-aware candidate selection with bounded staleness,
// rendezvous hashing for client affinity, hedged reads against a
// second backend after an adaptive p95 delay, and a global retry
// budget so a sick cluster sees less traffic, not a retry storm.
// Passive outlier ejection (consecutive failures → jittered cooldown)
// runs underneath all of it.
package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/peer"
	"mcbound/internal/resilience"
	"mcbound/internal/stats"
	"mcbound/internal/telemetry"

	"context"
)

// Headers the router stamps on proxied responses.
const (
	// BackendHeader names the backend that served the response — chaos
	// tests and operators use it to see routing decisions.
	BackendHeader = "X-MCBound-Backend"
	// StalenessHeader carries the serving follower's replication lag in
	// seconds when the router had to fall back past the bounded-staleness
	// cut (brownout reads). Absent on fresh reads.
	StalenessHeader = "X-MCBound-Staleness"
)

// Defaults for the zero Config fields, and the limits no caller tunes.
const (
	DefaultMaxReadLag     = 5 * time.Second
	DefaultHedgeAfterMin  = 5 * time.Millisecond
	DefaultEjectThreshold = 5
	DefaultEjectCooldown  = 10 * time.Second
	DefaultPollEvery      = time.Second
	DefaultMaxBodyBytes   = 8 << 20
	// maxRetries caps extra read attempts (distinct backends) after the
	// first; each one must also win a retry-budget token.
	maxRetries = 2
	// maxEjectFraction caps how much of the fleet may sit ejected at
	// once; an ejection that would cross it is skipped.
	maxEjectFraction = 0.5
	// forwardTimeout bounds each proxied attempt.
	forwardTimeout = 10 * time.Second
)

// Config tunes the front door. Backends is required; every other zero
// value selects the documented default.
type Config struct {
	// Backends is the static member list the router fronts (it is not
	// itself a member). A request goes only to one of them: a leader a
	// member reports counts only when it names a member.
	Backends []cluster.Member
	// MaxReadLag is the bounded-staleness cut: followers lagging more
	// than this are excluded from normal read routing.
	MaxReadLag time.Duration
	// HedgeAfterMin floors the adaptive hedge delay, so a quiet cluster
	// with sub-millisecond p95s does not hedge every request.
	HedgeAfterMin time.Duration
	// RetryBudget configures the global token bucket shared by every
	// retried request.
	RetryBudget resilience.BudgetConfig
	// EjectThreshold is the consecutive-failure streak that ejects a
	// backend.
	EjectThreshold int
	// EjectCooldown is the base ejection length; the actual cooldown is
	// jittered uniformly over [0.5, 1.5)× so a fleet of routers does not
	// re-admit a struggling backend in lockstep.
	EjectCooldown time.Duration
	// PollEvery is the health-probe period.
	PollEvery time.Duration
	// MaxBodyBytes caps the buffered write body (the buffer is what
	// makes resending a write after a 421 safe).
	MaxBodyBytes int64
	// Seed drives every random choice (cooldown jitter) deterministically.
	Seed uint64
	// HTTP overrides the backend transport; per-attempt deadlines come
	// from forwardTimeout on the router's clock. Nil selects a plain
	// client.
	HTTP *http.Client
	// Registry, when non-nil, receives the mcbound_router_* metrics.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives routing decisions worth an
	// operator's attention (ejections, brownouts).
	Logger *slog.Logger
}

// Router is the front door. Create with New, start the health poller
// with Run, serve it as an http.Handler.
type Router struct {
	cfg      Config
	hc       *http.Client
	backends []*backend
	byURL    map[string]*backend
	budget   *resilience.Budget
	met      *metrics
	clock    clock.Clock
	log      *slog.Logger

	rngMu sync.Mutex
	rng   *stats.RNG

	// refreshMu single-flights probe rounds; lastRefresh debounces the
	// failure-triggered ones. rounds counts the rounds begun, so a write
	// that met a 421 can tell whether one began after it was sent.
	refreshMu   sync.Mutex
	lastRefresh time.Time
	rounds      atomic.Uint64

	// hedges backs the Hedges accessor.
	hedges atomic.Int64
}

// New validates cfg, applies defaults and builds the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	if cfg.MaxReadLag <= 0 {
		cfg.MaxReadLag = DefaultMaxReadLag
	}
	if cfg.HedgeAfterMin <= 0 {
		cfg.HedgeAfterMin = DefaultHedgeAfterMin
	}
	if cfg.EjectThreshold <= 0 {
		cfg.EjectThreshold = DefaultEjectThreshold
	}
	if cfg.EjectCooldown <= 0 {
		cfg.EjectCooldown = DefaultEjectCooldown
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = DefaultPollEvery
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	// The router's own copy of the client: a backend's 3xx is relayed to
	// the caller, never followed — a redirect could lead outside the
	// membership, and a request goes only to a member the probes name.
	hc := &http.Client{}
	if cfg.HTTP != nil {
		*hc = *cfg.HTTP
	}
	hc.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	rt := &Router{
		cfg:    cfg,
		hc:     hc,
		byURL:  make(map[string]*backend, len(cfg.Backends)),
		budget: resilience.NewBudget(cfg.RetryBudget),
		clock:  clock.Wall{},
		rng:    stats.NewRNG(cfg.Seed),
		log:    cfg.Logger,
	}
	if rt.log == nil {
		rt.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for i, m := range cfg.Backends {
		m.URL = strings.TrimRight(m.URL, "/")
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("router: backend %d needs both id and url", i)
		}
		if seen[m.ID] || rt.byURL[m.URL] != nil {
			return nil, fmt.Errorf("router: duplicate backend %s (%s)", m.ID, m.URL)
		}
		seen[m.ID] = true
		base, err := url.Parse(m.URL)
		if err != nil || base.Host == "" {
			return nil, fmt.Errorf("router: backend %s: %q is not an absolute URL", m.ID, m.URL)
		}
		b := &backend{member: m, base: base, lat: telemetry.NewP95Window()}
		rt.backends = append(rt.backends, b)
		rt.byURL[m.URL] = b
	}
	sort.Slice(rt.backends, func(i, j int) bool { return rt.backends[i].member.ID < rt.backends[j].member.ID })
	rt.met = newMetrics(cfg.Registry, rt)
	return rt, nil
}

// Budget exposes the global retry budget (the benchmark counts the
// router's retries through it).
func (rt *Router) Budget() *resilience.Budget { return rt.budget }

// Hedges reports how many hedge attempts have been launched.
func (rt *Router) Hedges() int64 { return rt.hedges.Load() }

// isMember reports whether base is a configured backend's URL: a
// member's word on where the leader lives counts only when it names one.
func (rt *Router) isMember(base string) bool {
	return rt.byURL[strings.TrimRight(base, "/")] != nil
}

// Run probes the fleet once immediately, then on every poll tick until
// ctx ends.
func (rt *Router) Run(ctx context.Context) {
	every := func() time.Duration { return rt.cfg.PollEvery }
	clock.NewLoop(rt.clock, every, rt.RefreshNow).Run(ctx, 0)
}

// RefreshNow runs one probe round across every backend and waits for
// it. Concurrent callers serialize; each still gets a full round.
func (rt *Router) RefreshNow(ctx context.Context) {
	rt.refreshMu.Lock()
	defer rt.refreshMu.Unlock()
	rt.probeAll(ctx)
	rt.lastRefresh = rt.clock.Now()
}

// refreshSoon triggers an asynchronous debounced probe round — the
// data path calls it on failures so routing state catches up with a
// dying backend faster than the next poll tick, without letting a
// failure storm turn into a probe storm.
func (rt *Router) refreshSoon() {
	go func() {
		if !rt.refreshMu.TryLock() {
			return // a round is already running
		}
		defer rt.refreshMu.Unlock()
		if rt.clock.Now().Sub(rt.lastRefresh) < rt.cfg.PollEvery/4 {
			return
		}
		rt.probeAll(context.Background())
		rt.lastRefresh = rt.clock.Now()
	}()
}

func (rt *Router) probeTimeout() time.Duration {
	d := rt.cfg.PollEvery
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// refreshSince runs a probe round unless one has begun since the caller
// read round from rt.rounds: that round, which this call waits out,
// already saw the fleet as the caller's last answer left it. So a burst
// of 421s shares one round. The round runs on its own deadline, not
// ctx's: other writes may be waiting on it.
func (rt *Router) refreshSince(ctx context.Context, round uint64) {
	rt.refreshMu.Lock()
	defer rt.refreshMu.Unlock()
	if rt.rounds.Load() != round {
		return
	}
	rt.probeAll(context.WithoutCancel(ctx))
	rt.lastRefresh = rt.clock.Now()
}

// probeAll polls every backend's /healthz concurrently. The caller
// holds refreshMu.
func (rt *Router) probeAll(ctx context.Context) {
	rt.rounds.Add(1)
	pctx, cancel := clock.WithTimeout(ctx, rt.clock, rt.probeTimeout())
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			b.probe(pctx, rt.hc)
		}(b)
	}
	wg.Wait()
}

// leaderURL resolves the current leader from the probes: a backend that
// identifies itself as the lease-holding leader, then any live member's
// observation of where the leader lives — as long as it names a member.
func (rt *Router) leaderURL() string {
	for _, b := range rt.backends {
		s := b.snapshot()
		if s.probed && s.alive && s.isLeader() {
			return b.member.URL
		}
	}
	for _, b := range rt.backends {
		s := b.snapshot()
		if s.probed && s.alive && s.leaderURL != "" && rt.isMember(s.leaderURL) {
			// A member's stale observation may name a leader the router
			// already knows is dead; forwarding there would burn a write.
			if lb := rt.byURL[s.leaderURL]; lb != nil {
				if ls := lb.snapshot(); ls.probed && !ls.alive {
					continue
				}
			}
			return s.leaderURL
		}
	}
	return ""
}

// readCandidates assembles the preference-ordered backend list for a
// read: fresh followers by rendezvous order, then the leader as
// fallback, and — only when that set is empty — the freshest stale
// follower (brownout read, stale=true). An unprobed backend counts as
// fresh: at startup optimism beats serving nothing. The list is built
// in buf (the caller's stack, for any fleet it holds).
func (rt *Router) readCandidates(key string, buf []*backend) (cands []*backend, stale bool, lag float64) {
	now := rt.clock.Now()
	fresh := buf[:0]
	var scoreBuf [8]uint64
	scores := scoreBuf[:0]
	var leader *backend
	var bestStale *backend
	bestLag := math.Inf(1)
	for _, b := range rt.backends {
		s := b.snapshot()
		if (s.probed && !s.alive) || now.Before(s.ejectedUntil) {
			continue
		}
		if s.isLeader() {
			leader = b
			continue
		}
		if s.followState != "disconnected" && s.lagSeconds <= rt.cfg.MaxReadLag.Seconds() {
			// Insert by descending score; equal scores keep ID order.
			score := rendezvousScore(b.member.ID, key)
			at := len(fresh)
			fresh, scores = append(fresh, b), append(scores, score)
			for ; at > 0 && scores[at-1] < score; at-- {
				fresh[at], scores[at] = fresh[at-1], scores[at-1]
			}
			fresh[at], scores[at] = b, score
			continue
		}
		if s.lagSeconds < bestLag {
			bestStale, bestLag = b, s.lagSeconds
		}
	}
	cands = fresh
	if leader != nil {
		cands = append(cands, leader)
	}
	if len(cands) == 0 && bestStale != nil {
		return append(cands, bestStale), true, bestLag
	}
	return cands, false, 0
}

// hedgeDelay is when a read's second attempt launches: the smallest
// p95 among the candidate backends (any of them could serve the hedge),
// floored at HedgeAfterMin. Keying on the *fleet's* best p95 rather
// than the primary's own means a uniformly slow backend still gets
// hedged around — its own p95 would never fire. A backend whose first
// window is not full yet reports 0 and is passed over.
func (rt *Router) hedgeDelay(cands []*backend) time.Duration {
	var best time.Duration
	for _, b := range cands {
		if p := b.lat.P95(); p > 0 && (best == 0 || p < best) {
			best = p
		}
	}
	return max(rt.cfg.HedgeAfterMin, best)
}

// ejectCooldown draws one ejection length: EjectCooldown × [0.5, 1.5).
func (rt *Router) ejectCooldown() time.Duration {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return clock.Jitter(rt.cfg.EjectCooldown, 0.5, rt.rng.Float64())
}

// noteSuccess clears a backend's failure streak.
func (rt *Router) noteSuccess(b *backend) { b.observeSuccess() }

// noteFailure counts one failed forward against b and ejects it when
// the streak crosses the threshold — unless ejecting would leave too
// little of the fleet in service (maxEjectFraction floor).
func (rt *Router) noteFailure(b *backend) {
	streak := b.observeFailure()
	rt.refreshSoon()
	if streak < rt.cfg.EjectThreshold {
		return
	}
	now := rt.clock.Now()
	ejected := 0
	for _, o := range rt.backends {
		if o != b && o.ejected(now) {
			ejected++
		}
	}
	if float64(ejected+1) > maxEjectFraction*float64(len(rt.backends)) {
		// The floor: shedding this backend would eject too much of the
		// fleet. Keep it in rotation — degraded service beats none.
		return
	}
	cd := rt.ejectCooldown()
	b.eject(now.Add(cd))
	rt.met.ejections.Inc()
	rt.log.Warn("router: ejected backend", "backend", b.member.ID, "cooldown", cd.Round(time.Millisecond), "failures", streak)
}

// ServeHTTP routes: the router's own endpoints first, then proxying.
// The request's X-Request-Id — the client's when it sent a sane one,
// else minted here — is on every answer, the router's own included, and
// on every attempt sent for the request.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := httpapi.RequestID(r)
	w.Header().Set(httpapi.RequestIDHeader, id)
	switch {
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		rt.handleHealth(w, r)
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet && rt.cfg.Registry != nil:
		rt.cfg.Registry.Handler().ServeHTTP(w, r)
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		rt.forwardRead(w, r, id)
	default:
		rt.forwardWrite(w, r, id)
	}
}

// writeError emits the same JSON envelope the backends use, so clients
// see one error schema no matter which layer failed.
func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(peer.ErrorBody{Error: msg, Code: code})
}

// retryAfterSeconds is the brownout hint: roughly one poll period,
// rounded up — by then the router has re-probed the fleet.
func (rt *Router) retryAfterSeconds() string {
	s := int(math.Ceil(rt.cfg.PollEvery.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// fleetHealth is the router's own /healthz: its view of the fleet.
type fleetHealth struct {
	Status        string          `json:"status"`
	Leader        string          `json:"leader"`
	Available     int             `json:"available"`
	Backends      []backendHealth `json:"backends"`
	BudgetTokens  float64         `json:"retry_budget_tokens"`
	Retries       int64           `json:"retries_total"`
	RetriesDenied int64           `json:"retries_denied_total"`
}

type backendHealth struct {
	ID       string  `json:"id"`
	URL      string  `json:"url"`
	Alive    bool    `json:"alive"`
	Role     string  `json:"role,omitempty"`
	Lag      float64 `json:"replication_lag_seconds"`
	Ejected  bool    `json:"ejected"`
	Failures int64   `json:"ejections_total"`
}

// handleHealth reports the router's own view of the fleet.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	now := rt.clock.Now()
	doc := fleetHealth{
		Status:        "ok",
		Leader:        rt.leaderURL(),
		Backends:      make([]backendHealth, 0, len(rt.backends)),
		BudgetTokens:  rt.budget.Tokens(),
		Retries:       rt.budget.Retries(),
		RetriesDenied: rt.budget.Exhausted(),
	}
	for _, b := range rt.backends {
		s := b.snapshot()
		ej := b.ejected(now)
		alive := !s.probed || s.alive
		if alive && !ej {
			doc.Available++
		}
		doc.Backends = append(doc.Backends, backendHealth{
			ID: b.member.ID, URL: b.member.URL,
			Alive: alive, Role: s.role, Lag: s.lagSeconds,
			Ejected: ej, Failures: b.ejectionCount(),
		})
	}
	status := http.StatusOK
	if doc.Available == 0 {
		status, doc.Status = http.StatusServiceUnavailable, "no_backend"
	} else if doc.Leader == "" {
		doc.Status = "no_leader" // reads still served: brownout, not outage
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Strings, booleans and lags decoded from JSON (never NaN): the
	// encoding cannot fail, and a failed write has no one left to tell.
	_ = json.NewEncoder(w).Encode(doc)
}

// --- read path ---------------------------------------------------------

// forwardRead serves GET/HEAD: candidate selection, hedging, budgeted
// retries across distinct backends.
func (rt *Router) forwardRead(w http.ResponseWriter, r *http.Request, id string) {
	var buf [8]*backend
	cands, stale, lag := rt.readCandidates(admission.ClientKey(r), buf[:0])
	if len(cands) == 0 {
		rt.met.requests("read", "no_backend").Inc()
		rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeNoBackend,
			"no backend can serve this read: every member is down, ejected, or too stale")
		return
	}
	hedgeAfter := rt.hedgeDelay(cands)
	var lastErr error
	for attempt := 0; attempt < len(cands) && attempt <= maxRetries; attempt++ {
		if attempt > 0 && !rt.budget.Allow() {
			rt.met.requests("read", "retry_budget").Inc()
			rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeRetryBudget,
				fmt.Sprintf("retry budget exhausted after: %v", lastErr))
			return
		}
		primary := cands[attempt]
		var hedge *backend
		if !stale && attempt+1 < len(cands) {
			hedge = cands[attempt+1]
		}
		res, err := rt.attemptRead(r, id, primary, hedge, hedgeAfter)
		if err != nil {
			lastErr = err
			continue
		}
		rt.budget.OnSuccess()
		if stale {
			w.Header().Set(StalenessHeader, strconv.FormatFloat(lag, 'f', 3, 64))
			rt.met.staleReads.Inc()
		}
		rt.met.readOK.Inc()
		rt.relay(w, res.resp, res.b.member.ID)
		res.cancel()
		return
	}
	rt.met.requests("read", "upstream_error").Inc()
	rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
		fmt.Sprintf("every read candidate failed: %v", lastErr))
}

// tryResult is one backend attempt's outcome.
type tryResult struct {
	resp   *http.Response
	err    error
	b      *backend
	cancel context.CancelFunc
	dur    time.Duration
}

// answered reports whether the backend gave an answer to relay: any
// response below 500. A transport error or a 5xx is a failed attempt.
func (res tryResult) answered() bool {
	return res.err == nil && res.resp.StatusCode < http.StatusInternalServerError
}

// try sends r, tagged id, to b on ctx and waits for the response
// headers. cancel is ctx's and travels with the result: whoever ends up
// owning the response calls it once the body is consumed.
func (rt *Router) try(ctx context.Context, cancel context.CancelFunc, r *http.Request, id string, b *backend) tryResult {
	start := rt.clock.Now()
	resp, err := rt.hc.Do(rt.cloneRequest(ctx, r, id, b, nil))
	return tryResult{resp: resp, err: err, b: b, cancel: cancel, dur: rt.clock.Now().Sub(start)}
}

// attemptRead runs one read attempt: the primary on the request's own
// goroutine, and — if hedge is non-nil and the primary has not answered
// within hedgeAfter on the router's clock — a second request to hedge,
// raced against it. The common read, whose hedge never fires, is a
// straight line: one timer armed and stopped, no goroutine, no channel.
// On success the caller relays the result's response, then calls its
// cancel; on failure err is the last failed attempt's (a ≥ 500 fails).
//
// Once the hedge is in flight the race has three outcomes. The primary
// answers first: the hedge is canceled at once and cleans up after
// itself. The hedge answers first: the primary is canceled at once, its
// Do returns on this goroutine and whatever it returns is discarded,
// and the hedge's response is relayed. Or the first one back has
// failed: the failure is counted against its backend and the other
// attempt decides alone.
func (rt *Router) attemptRead(r *http.Request, id string, primary, hedge *backend, hedgeAfter time.Duration) (tryResult, error) {
	ctx, cancel := clock.WithTimeout(r.Context(), rt.clock, forwardTimeout)
	var race *hedgeRace
	if hedge != nil {
		race = &hedgeRace{rt: rt, r: r, id: id, b: hedge, cancelPrimary: cancel}
		defer rt.clock.AfterFunc(hedgeAfter, race.run).Stop()
	}
	res := rt.try(ctx, cancel, r, id, primary)
	switch race.primaryBack(res) {
	case hedgeWon:
		rt.discardLoser(res)
		return rt.hedgeWin(<-race.done), nil
	case hedgePending:
		err := rt.observeLoss(res)
		hres := <-race.done
		if hres.answered() {
			return rt.hedgeWin(hres), nil
		}
		if !race.failedFirst { // ordered by the receive above
			err = hres.err
		}
		return tryResult{}, err
	}
	if res.answered() {
		rt.observeWin(res)
		return res, nil
	}
	return tryResult{}, rt.observeLoss(res)
}

// hedgeRace is what a primary attempt and its hedge share; it is
// allocated with the hedge timer and only used once the timer fires.
// mu orders the two events that matter — the primary coming back, the
// hedge coming back — so exactly one side wins and the other knows.
type hedgeRace struct {
	rt            *Router
	r             *http.Request
	id            string
	b             *backend
	cancelPrimary context.CancelFunc

	mu          sync.Mutex
	primaryDone bool               // the primary is back, answered or failed
	primaryWon  bool               // ... answered, before the hedge had
	won         bool               // the hedge answered while the primary was out
	failedFirst bool               // the hedge failed while the primary was out
	cancel      context.CancelFunc // the hedge's own
	done        chan tryResult     // made when the hedge is sent; carries its result, unless primaryWon
}

// What the hedge means to a primary that has just come back.
type hedgeState int

const (
	hedgeIdle    hedgeState = iota // never launched, or just canceled: the primary decides alone
	hedgeWon                       // answered first: the primary lost
	hedgePending                   // in flight or failed, and the primary has failed: the hedge decides
)

// run is the timer's func: the primary has been out for the whole hedge
// delay, so send the hedge — on this, the timer's, goroutine.
func (h *hedgeRace) run() {
	h.mu.Lock()
	if h.primaryDone {
		h.mu.Unlock()
		return // fired as the primary came back: nothing left to hedge
	}
	ctx, cancel := clock.WithTimeout(h.r.Context(), h.rt.clock, forwardTimeout)
	h.cancel, h.done = cancel, make(chan tryResult, 1)
	h.mu.Unlock()
	h.rt.hedges.Add(1)
	h.rt.met.hedges.Inc()

	res := h.rt.try(ctx, cancel, h.r, h.id, h.b)

	h.mu.Lock()
	lost := h.primaryWon
	switch {
	case lost:
	case !res.answered():
		h.failedFirst = !h.primaryDone
	case !h.primaryDone:
		h.won = true
		h.cancelPrimary()
	}
	h.mu.Unlock()
	// Bodies are drained and closed outside the lock.
	if lost {
		h.rt.discardLoser(res)
		return
	}
	if !res.answered() {
		res.err = h.rt.observeLoss(res)
	}
	h.done <- res
}

// primaryBack records that the primary has returned res and reports
// what the hedge means for it. A primary that answers before the hedge
// has wins here and now, and cancels the hedge.
func (h *hedgeRace) primaryBack(res tryResult) hedgeState {
	if h == nil {
		return hedgeIdle
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.primaryDone = true
	switch {
	case h.done == nil: // never sent
		return hedgeIdle
	case h.won:
		return hedgeWon
	case res.answered():
		h.primaryWon = true
		h.cancel()
		return hedgeIdle
	}
	return hedgePending
}

// hedgeWin records a hedge that answered and returns it for relaying.
func (rt *Router) hedgeWin(res tryResult) tryResult {
	rt.observeWin(res)
	rt.met.hedgeWins.Inc()
	return res
}

// observeWin records a successful attempt: latency sample, streak
// reset, per-backend metric.
func (rt *Router) observeWin(res tryResult) {
	res.b.lat.Observe(res.dur)
	rt.noteSuccess(res.b)
	res.b.requestsOK.Inc()
	rt.met.forwardSeconds.Observe(res.dur.Seconds())
}

// observeLoss records a failed attempt and returns the error to carry.
func (rt *Router) observeLoss(res tryResult) error {
	err := res.err
	if res.resp != nil {
		io.Copy(io.Discard, io.LimitReader(res.resp.Body, 4096))
		res.resp.Body.Close()
		err = fmt.Errorf("backend %s answered %d", res.b.member.ID, res.resp.StatusCode)
	}
	res.cancel()
	rt.noteFailure(res.b)
	rt.met.backendRequests(res.b.member.ID, "error").Inc()
	return err
}

// discardLoser reaps the attempt that lost a hedge race: its context
// was canceled the moment the winner answered, so res is usually that
// cancellation's error; if the backend managed to answer anyway, the
// response is closed unread and counted.
func (rt *Router) discardLoser(res tryResult) {
	res.cancel()
	if res.resp != nil {
		res.resp.Body.Close()
		if res.answered() {
			rt.met.backendRequests(res.b.member.ID, "hedge_loser").Inc()
		}
	}
}

// --- write path --------------------------------------------------------

// forwardWrite buffers the body (bounded) and forwards it to the leader
// the probes name. A 421 means the probes are behind: one round, shared
// with every write that met a 421 meanwhile, re-resolves the leader, and
// the write is resent once if that names a different member; otherwise
// it browns out. Transport failures are never blindly retried — the
// write may have been applied — so the client gets a typed 502 and
// decides.
func (rt *Router) forwardWrite(w http.ResponseWriter, r *http.Request, id string) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		rt.met.requests("write", "bad_body").Inc()
		rt.writeError(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		return
	}
	if int64(len(body)) > rt.cfg.MaxBodyBytes {
		rt.met.requests("write", "too_large").Inc()
		rt.writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("write body exceeds the router's %d-byte buffer", rt.cfg.MaxBodyBytes))
		return
	}
	round := rt.rounds.Load()
	leader := rt.leaderURL()
	if leader == "" {
		rt.refreshSince(r.Context(), round)
		leader = rt.leaderURL()
	}
	if leader == "" {
		rt.brownoutWrite(w, id, nil)
		return
	}
	for resent := false; ; resent = true {
		b := rt.byURL[leader] // leaderURL names members only
		round = rt.rounds.Load()
		actx, cancel := clock.WithTimeout(r.Context(), rt.clock, forwardTimeout)
		start := rt.clock.Now()
		resp, derr := rt.hc.Do(rt.cloneRequest(actx, r, id, b, bytes.NewReader(body)))
		if derr != nil {
			cancel()
			rt.noteFailure(b)
			rt.met.requests("write", "upstream_error").Inc()
			rt.met.backendRequests(b.member.ID, "error").Inc()
			// The write may or may not have landed; only the client knows
			// whether it is idempotent. 502, not a silent retry.
			rt.writeError(w, http.StatusBadGateway, httpapi.CodeUpstream,
				"leader unreachable mid-write (the write may not have been applied): "+derr.Error())
			return
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			if !resent {
				rt.refreshSince(r.Context(), round)
				if next := rt.leaderURL(); next != "" && next != leader {
					leader = next
					continue
				}
			}
			// The cluster is mid-election, or a member names a leader
			// outside it. Brownout.
			rt.brownoutWrite(w, id, fmt.Errorf("%s answered 421 not_leader", b.member.ID))
			return
		}
		// 503 lease_lost (and friends) relay as-is but nudge a re-probe so
		// the next write lands on the new leader.
		if resp.StatusCode == http.StatusServiceUnavailable {
			rt.refreshSoon()
		}
		if resp.StatusCode < http.StatusInternalServerError {
			rt.noteSuccess(b)
			rt.budget.OnSuccess()
			b.requestsOK.Inc()
			rt.met.requests("write", "ok").Inc()
			rt.met.forwardSeconds.Observe(rt.clock.Now().Sub(start).Seconds())
		} else {
			rt.noteFailure(b)
			rt.met.backendRequests(b.member.ID, "error").Inc()
			rt.met.requests("write", "upstream_5xx").Inc()
		}
		rt.relay(w, resp, b.member.ID)
		cancel()
		return
	}
}

// brownoutWrite is the typed fail-fast when no leader is known: 503 +
// Retry-After, so clients back off exactly one probe period instead of
// hammering a leaderless cluster.
func (rt *Router) brownoutWrite(w http.ResponseWriter, id string, cause error) {
	rt.met.requests("write", "no_leader").Inc()
	w.Header().Set("Retry-After", rt.retryAfterSeconds())
	msg := "no leader holds the lease; writes fail fast until the cluster elects one"
	if cause != nil {
		msg += " (" + cause.Error() + ")"
	}
	rt.writeError(w, http.StatusServiceUnavailable, httpapi.CodeNoLeader, msg)
	rt.log.Warn("router: write browned out", "reason", msg, "request_id", id)
}

// --- proxy plumbing ----------------------------------------------------

// hopByHop are the connection-scoped headers a proxy must not relay.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// cloneRequest rebuilds r against backend b, carrying method, path and
// query, headers (minus hop-by-hop) with the request's ID, and the
// buffered write body (nil on a read). The target is b's base URL — parsed once, at New — with the
// incoming path and query put on it; nothing is rendered to a string and
// parsed back.
func (rt *Router) cloneRequest(ctx context.Context, r *http.Request, id string, b *backend, body *bytes.Reader) *http.Request {
	u := *b.base
	u.Path += r.URL.Path
	if r.URL.RawPath != "" || u.RawPath != "" {
		u.RawPath = b.base.EscapedPath() + r.URL.EscapedPath()
	}
	u.RawQuery, u.ForceQuery = r.URL.RawQuery, r.URL.ForceQuery
	req := (&http.Request{
		Method: r.Method, URL: &u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, len(r.Header)+2),
	}).WithContext(ctx)
	if body != nil && body.Len() > 0 {
		// Sized, and replayable should the transport find its idle
		// connection dead before a byte is sent.
		buf := *body
		req.ContentLength = int64(body.Len())
		req.Body = io.NopCloser(body)
		req.GetBody = func() (io.ReadCloser, error) { again := buf; return io.NopCloser(&again), nil }
	}
	for k, vs := range r.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		req.Header[k] = vs
	}
	req.Header.Set("X-Forwarded-For", remoteHost(r))
	req.Header.Set(httpapi.RequestIDHeader, id)
	return req
}

func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// relay copies a backend response to the client.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, backendID string) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		h[k] = vs
	}
	h.Set(BackendHeader, backendID)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
