// Package httpapi exposes the MCBound framework operations over HTTP —
// the role of the paper's flask backend (§III-E). Endpoints mirror the
// framework API:
//
//	GET    /healthz                      liveness probe
//	GET    /metrics                      Prometheus text exposition
//	GET    /v1/model                     currently served model info
//	POST   /v1/train                     trigger the Training Workflow
//	POST   /v1/jobs                      insert job records (atomic batch)
//	GET    /v1/classify/{id}             classify one stored job
//	POST   /v1/classify                  classify posted job records
//	GET    /v1/classify?start=&end=      classify jobs submitted in a range
//	GET    /v1/wal/segments              replication manifest (epoch, committed seq, files)
//	GET    /v1/wal/segments/{name}       ranged segment/snapshot bytes (?offset=&limit=)
//	POST   /v1/promote                   promote this follower to leader (fences the old epoch)
//	GET    /v1/lease                     leadership lease document (leader's own or follower's relay)
//	POST   /v1/lease/ack                 heartbeat acknowledgment / election vote request
//
// All payloads are JSON; timestamps are RFC 3339. The range read
// paginates with opaque resumable cursors (?cursor=, {items, next_cursor,
// has_more} envelopes) that stay stable under concurrent inserts; a
// request without a cursor gets the first page. Errors carry a stable
// machine-readable code next to the message:
// {"error": "...", "code": "not_found"}.
// Every route answers one bounded request with one response: request
// bodies are capped (Options.MaxBodyBytes), every request runs under a
// deadline (the route's default or a clamped X-Request-Timeout) and is
// tagged with an X-Request-Id, logged, counted and timed per route.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/core"
	"mcbound/internal/election"
	"mcbound/internal/job"
	"mcbound/internal/peer"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
)

// DefaultMaxBodyBytes caps POST bodies at 8 MiB unless overridden.
const DefaultMaxBodyBytes = 8 << 20

// Deadline defaults: every request runs under a context deadline (the
// overload model's doomed-request shedding needs one to reason about).
const (
	// DefaultDeadline bounds interactive requests unless the client
	// sends X-Request-Timeout (batch and background routes scale it up;
	// see request.go).
	DefaultDeadline = 10 * time.Second
	// DefaultMaxDeadline is the hard ceiling any client header is
	// clamped to.
	DefaultMaxDeadline = 2 * time.Minute
)

// Options tune the serving layer. The zero value is production-safe.
type Options struct {
	// MaxBodyBytes caps request bodies; 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// Registry receives the serving metrics; nil allocates a private one.
	// Share a registry to expose additional collectors on /metrics.
	Registry *telemetry.Registry

	// EnablePprof mounts /debug/pprof/* on the API mux.
	EnablePprof bool

	// Breaker, when set, is the fetch-layer circuit breaker whose state
	// /healthz reports; nil omits the field. Kept for benchmark/fixture;
	// ROADMAP item 12(b) deletes it with 4(a).
	Breaker *resilience.Breaker

	// Admission is the overload-protection controller every route passes
	// through; nil builds one with admission.DefaultConfig (the serving
	// path is never unprotected).
	Admission *admission.Controller

	// Durable, when set, is the write-ahead-logged store behind the
	// insert endpoint: POST /v1/jobs acknowledges only after the batch
	// reached the configured fsync policy's durability point, /healthz
	// grows a "durability" section and the mcbound_wal_* collectors are
	// registered. Its Store() must be the same store passed to New.
	Durable *store.Durable

	// Elector, when set, is the lease-based leader elector this node runs
	// under: the GET /v1/lease + POST /v1/lease/ack heartbeat surface is
	// mounted, leader writes are additionally fenced by the lease (typed
	// lease_lost 503 the instant quorum acks go stale), POST /v1/promote
	// routes through the elector so manual and elected promotions
	// serialize on one term sequence, /healthz grows a "cluster" section
	// and the mcbound_cluster_* collectors are registered. Requires Repl
	// (the elector drives the node's role).
	Elector *election.Elector

	// Repl, when set, is this process's replication role: the manifest
	// and segment-fetch routes plus POST /v1/promote are mounted, write
	// routes are fenced with the typed not_leader redirect on a
	// follower, /healthz grows a "replication" section (with the
	// three-way ok/lagging/disconnected state on followers) and the
	// mcbound_repl_* collectors are registered. On a leader, pass the
	// same durable store in both Durable and Repl.
	Repl *repl.Node

	// Clock is what the handlers read the instant on; nil is the wall clock.
	Clock clock.Clock
}

// Server wires a Framework and its job store into an http.Handler.
type Server struct {
	fw       *core.Framework
	store    *store.Store
	mux      *http.ServeMux
	patterns []string // every mux pattern registered, in order (the route-table test's checklist)
	log      *log.Logger
	reg      *telemetry.Registry
	metrics  *appMetrics
	maxBody  int64
	breaker  *resilience.Breaker
	adm      *admission.Controller
	durable  *store.Durable
	repl     *repl.Node
	elector  *election.Elector
	clock    clock.Clock
}

// New builds a Server. The store must be the same one backing the
// framework's Data Fetcher (the insert endpoint writes to it).
func New(fw *core.Framework, st *store.Store, logger *log.Logger, opts Options) *Server {
	if logger == nil {
		logger = log.Default()
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.Admission == nil {
		opts.Admission = admission.NewController(admission.DefaultConfig())
	}
	if opts.Clock == nil {
		opts.Clock = clock.Wall{}
	}
	s := &Server{
		fw:      fw,
		store:   st,
		mux:     http.NewServeMux(),
		log:     logger,
		reg:     opts.Registry,
		metrics: newAppMetrics(opts.Registry, st.Len, fw, opts.Clock),
		maxBody: opts.MaxBodyBytes,
		breaker: opts.Breaker,
		adm:     opts.Admission,
		durable: opts.Durable,
		repl:    opts.Repl,
		elector: opts.Elector,
		clock:   opts.Clock,
	}
	registerAdmissionMetrics(s.reg, s.adm)
	if s.durable != nil || s.repl != nil {
		// The provider indirection matters on followers: the durable
		// store only appears when a promotion attaches one.
		registerWALMetrics(s.reg, s.currentDurable)
	}
	if s.repl != nil {
		registerReplMetrics(s.reg, s.repl)
	}
	if s.elector != nil {
		registerClusterMetrics(s.reg, s.elector)
	}
	// Route priorities: the inference hot path is Interactive, bulk
	// range/batch endpoints are Batch, retraining is Background (capped
	// so a hot-swap never starves inference), and the health probe is
	// Critical — instrumented like everything else but always admitted.
	s.route("GET /healthz", admission.Critical, s.handleHealth)
	s.route("GET /v1/model", admission.Interactive, s.handleModel)
	s.route("POST /v1/train", admission.Background, s.handleTrain)
	s.route("POST /v1/jobs", admission.Batch, s.leaderOnly(s.handleInsert))
	s.route("GET /v1/classify/{id}", admission.Interactive, s.handleClassifyByID)
	s.route("POST /v1/classify", admission.Interactive, s.handleClassifyJobs)
	s.route("GET /v1/classify", admission.Batch, s.handleClassifyRange)
	if s.repl != nil {
		// The replication surface rides at Background priority: shipping
		// log bytes to followers must never crowd out inference.
		s.route("GET /v1/wal/segments", admission.Background, s.handleReplManifest)
		s.route("GET /v1/wal/segments/{name}", admission.Background, s.handleReplChunk)
		// Promotion is the failover lever; it must work under duress.
		s.route("POST /v1/promote", admission.Critical, s.handlePromote)
	}
	if s.elector != nil {
		// The heartbeat surface is Critical for the same reason /healthz
		// is: overload must not masquerade as leader death.
		s.route("GET /v1/lease", admission.Critical, s.handleLeaseGet)
		s.route("POST /v1/lease/ack", admission.Critical, s.handleLeaseAck)
	}
	s.handle("GET /metrics", s.reg.Handler())
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry exposes the metrics registry (e.g. to register extra
// collectors before serving).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// ObserveTrain records a Training Workflow trigger that happened
// outside a request handler (the cron retraining ticker).
func (s *Server) ObserveTrain(rep *core.TrainReport, err error) { s.metrics.observeTrain(rep, err) }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("httpapi: encode response: %v", err)
	}
}

// writeRawJSON writes a body that is already encoded, newline included,
// byte for byte what writeJSON would send for its value (json.Encoder
// ends a value with a newline), in one Write. It does not modify body.
func (s *Server) writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.log.Printf("httpapi: write response: %v", err)
	}
}

// writeError maps err through errToStatus and emits the error envelope.
// Breaker and admission rejections carry their cooldown as a
// Retry-After header so well-behaved clients back off instead of
// hammering an overloaded server.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := errToStatus(err)
	after, ok := resilience.RetryAfter(err)
	if !ok {
		after, ok = admission.RetryAfter(err)
	}
	if ok {
		secs := int(math.Ceil(after.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	s.writeJSON(w, status, peer.ErrorBody{Error: err.Error(), Code: code})
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	name, version, trainedAt := s.fw.ModelInfo()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"model":      name,
		"version":    version,
		"trained":    s.fw.Trained(),
		"trained_at": trainedAt,
		"alpha_days": s.fw.Config().Alpha,
		"beta_days":  s.fw.Config().Beta,
		"index":      s.fw.IndexInfo(),
	})
}

type trainRequest struct {
	// Now is the reference instant for the α-day window; empty means
	// the store's TrainInstant, the instant the node's boot train and
	// retrain cron use.
	Now string `json:"now,omitempty"`
	// Index overrides the KNN index mode ("auto", "on", "off") for this
	// and future trains; empty leaves the deployment config.
	Index string `json:"index,omitempty"`
	// NProbe adjusts the index's cells-scanned-per-query knob; it also
	// applies immediately to the currently served model. 0 leaves it.
	NProbe int `json:"nprobe,omitempty"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	var now time.Time
	if req.Now == "" {
		now = s.store.TrainInstant(s.clock.Now().UTC())
	} else {
		t, err := time.Parse(time.RFC3339, req.Now)
		if err != nil {
			s.writeError(w, badRequest(fmt.Errorf("bad now: %w", err)))
			return
		}
		now = t
	}
	if req.Index != "" || req.NProbe != 0 {
		if err := s.fw.SetIndexOptions(req.Index, req.NProbe); err != nil {
			s.writeError(w, badRequest(err))
			return
		}
	}
	rep, err := s.fw.Train(r.Context(), now)
	s.metrics.observeTrain(rep, err)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"window_start":     rep.WindowStart,
		"window_end":       rep.WindowEnd,
		"fetched_jobs":     rep.FetchedJobs,
		"labeled_jobs":     rep.LabeledJobs,
		"fitted_jobs":      rep.FittedJobs,
		"skipped_jobs":     rep.SkippedJobs,
		"quarantined_jobs": rep.QuarantinedJobs,
		"train_seconds":    rep.TrainDuration.Seconds(),
		"model_version":    rep.ModelVersion,
	})
}

// handleInsert accepts a batch of job records atomically: the whole
// batch is validated first, and one invalid record rejects everything
// with the index of the first offender.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.decodeJobs(w, r)
	if !ok {
		return
	}
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			s.writeInvalidJob(w, err, i)
			return
		}
	}
	// With a durable store the insert is acknowledged only after the
	// batch reached the fsync policy's durability point; a WAL failure
	// means no 200 (and no in-memory application) — the client retries.
	var insertErr error
	if d := s.currentDurable(); d != nil {
		insertErr = d.Insert(jobs...)
	} else {
		insertErr = s.store.Insert(jobs...)
	}
	if insertErr != nil {
		s.writeError(w, insertErr)
		return
	}
	s.metrics.insertedJobs.Add(int64(len(jobs)))
	s.writeJSON(w, http.StatusOK, map[string]any{"inserted": len(jobs)})
}

func (s *Server) writeInvalidJob(w http.ResponseWriter, err error, index int) {
	status, code := errToStatus(err)
	s.writeJSON(w, status, peer.ErrorBody{Error: err.Error(), Code: code, Index: &index})
}

func (s *Server) handleClassifyByID(w http.ResponseWriter, r *http.Request) {
	t0 := s.clock.Now()
	pred, err := s.fw.ClassifyByID(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.metrics.observeClassify(1, s.clock.Now().Sub(t0))
	s.writeRawJSON(w, http.StatusOK, append(pred.AppendJSON(make([]byte, 0, 128)), '\n'))
}

func (s *Server) handleClassifyJobs(w http.ResponseWriter, r *http.Request) {
	jobs, ok := s.decodeJobs(w, r)
	if !ok {
		return
	}
	t0 := s.clock.Now()
	preds, err := s.fw.ClassifyJobs(r.Context(), jobs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.metrics.observeClassify(len(preds), s.clock.Now().Sub(t0))
	s.writeRawJSON(w, http.StatusOK, renderPredictions(preds))
}

// renderPredictions renders the predictions of one request as the JSON
// array [e0,e1,…]\n — byte for byte what json.Encoder writes for them,
// newline included — into one buffer.
func renderPredictions(preds []core.Prediction) []byte {
	// An upper bound unless an ID needs escaping.
	size := len("[]\n")
	for i := range preds {
		size += len(`{"job_id":"","class":"","model_version":2147483647,"degraded":true},`) +
			len(preds[i].JobID) + len(preds[i].Class)
	}
	buf := append(make([]byte, 0, size), '[')
	for i := range preds {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = preds[i].AppendJSON(buf)
	}
	return append(buf, ']', '\n')
}

// handleClassifyRange serves one cursor page of GET /v1/classify: the
// page of jobs is selected by (SubmitTime, ID) keyset position, then
// classified as a batch. The minted next_cursor names the last job of
// the page, so resumption is exact under concurrent inserts.
func (s *Server) handleClassifyRange(w http.ResponseWriter, r *http.Request) {
	start, end, err := timeRange(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	after, limit, err := pageParams(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	jobs, more := s.store.SubmittedPage(start, end, after, limit)
	env := cursorEnvelope{Items: []core.Prediction{}, HasMore: more}
	if len(jobs) > 0 {
		t0 := s.clock.Now()
		preds, err := s.fw.ClassifyJobs(r.Context(), jobs)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.metrics.observeClassify(len(preds), s.clock.Now().Sub(t0))
		env.Items = preds
		if more {
			last := jobs[len(jobs)-1]
			env.NextCursor = encodeCursor(store.Pos{Time: last.SubmitTime, ID: last.ID})
		}
	}
	s.writeJSON(w, http.StatusOK, env)
}

func timeRange(r *http.Request) (start, end time.Time, err error) {
	q := r.URL.Query()
	if q.Get("start") == "" || q.Get("end") == "" {
		return start, end, badRequest(fmt.Errorf("start and end query parameters are required (RFC 3339)"))
	}
	start, err = time.Parse(time.RFC3339, q.Get("start"))
	if err != nil {
		return start, end, badRequest(fmt.Errorf("bad start: %w", err))
	}
	end, err = time.Parse(time.RFC3339, q.Get("end"))
	if err != nil {
		return start, end, badRequest(fmt.Errorf("bad end: %w", err))
	}
	if !end.After(start) {
		return start, end, badRequest(fmt.Errorf("end must be after start"))
	}
	return start, end, nil
}

// bodyBufs recycles the buffers decodeJobs reads request bodies into.
// Reuse is safe because a decoded job.Job never points into the bytes it
// was decoded from (the job codec's contract).
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeJobs reads the (already capped) body of a batch POST and decodes
// its job records; on failure it has written the error response and
// returns false. A null record is rejected here, for insert and classify
// alike, with the index of the first one.
func (s *Server) decodeJobs(w http.ResponseWriter, r *http.Request) ([]*job.Job, bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		// A buffer that outgrew the body cap (a chunked body doubling past
		// it) would pin that much memory per pooled buffer for nothing.
		if int64(buf.Cap()) <= s.maxBody+bytes.MinRead {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	// Sized from Content-Length, ReadFrom never regrows the buffer; with no
	// length given (-1, a chunked body) it doubles as it reads.
	if n := r.ContentLength; n > 0 && n <= s.maxBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(r.Body)
	jobs, err := job.UnmarshalArray(buf.Bytes())
	if readErr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		// The body broke off inside the array: the cause (the cap, a lost
		// connection) is the error, as it was when encoding/json read the
		// body itself. A read that fails after the closing bracket, or
		// after a syntax error, does not change the answer either way.
		err = readErr
	}
	if err != nil {
		s.writeError(w, badRequest(fmt.Errorf("bad jobs payload: %w", err)))
		return nil, false
	}
	for i, j := range jobs {
		if j == nil {
			s.writeInvalidJob(w, fmt.Errorf("null record: %w", job.ErrInvalid), i)
			return nil, false
		}
	}
	return jobs, true
}

// decodeBody tolerates an empty request body.
func decodeBody(r *http.Request, v any) error {
	if r.Body == nil || r.ContentLength == 0 {
		return nil
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return badRequest(fmt.Errorf("bad request body: %w", err))
	}
	return nil
}
