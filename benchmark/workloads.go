package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"time"

	"mcbound/benchmark/fixture"
	"mcbound/internal/core"
	"mcbound/internal/job"
)

// env is what a workload runs in: one built fixture and the run's knobs.
type env struct {
	cfg runConfig
	fx  *fixture.Fixture
	// clients are the load generator's callers, reused across passes so
	// each keeps its one connection.
	clients []*client
	// started is the run's epoch (span timestamps count from it); total
	// accumulates the counter readings of every timed section.
	started time.Time
	total   counters
	// uniq numbers the unique-name variants; it only ever grows, so no
	// variant repeats within a run and none can hit the embedding cache.
	uniq int
}

// observe runs one timed section between two counter readings and
// books the difference to the phases the section belongs to.
func (e *env) observe(section func(), phases ...*phase) {
	before := readCounters(e.fx)
	section()
	after := readCounters(e.fx)
	e.total.add(before, after)
	for _, p := range phases {
		if p != nil {
			p.work.add(before, after)
		}
	}
}

// count is a per-pass op count: the base count, or a handful in the
// smoke test. A pass is short — a few tenths of a second — and always
// the same work; a longer run makes more passes, never longer ones.
func (e *env) count(base int) int {
	if e.cfg.Tiny {
		return max(2, base/100)
	}
	return base
}

// passes is how many measured passes the run makes at most (the clock
// may stop it earlier): what the workload asks for at the measuring time
// given, or two — enough for the counters — traced or in the smoke test.
func (e *env) passes(w workloadRun) int {
	if e.cfg.Tiny || e.cfg.Trace {
		return 2
	}
	return max(2, w.fullPasses(e.cfg.Seconds))
}

// sample returns up to n held-out jobs drawn and ordered by the run's
// seed: the same seed sends the same requests in the same order.
func (e *env) sample(n int) []*job.Job {
	held := append([]*job.Job(nil), e.fx.Trace.Held...)
	rng := rand.New(rand.NewPCG(e.cfg.Seed, 0x6d63626f756e64)) // "mcbound"
	rng.Shuffle(len(held), func(a, b int) { held[a], held[b] = held[b], held[a] })
	return held[:min(n, len(held))]
}

// result is what the measured passes of a workload add up to.
type result struct {
	classify  phase
	secondary phase
	// f1 and f1Jobs: F1-macro of the HTTP predictions and the number of
	// held-out jobs behind it. extra carries named values a workload
	// wants printed (never gated).
	f1     float64
	f1Jobs int
	extra  map[string]float64
}

func newResult(classify, secondary string) *result {
	return &result{
		classify:  phase{name: classify},
		secondary: phase{name: secondary},
		extra:     map[string]float64{},
	}
}

// workloadRun is one named workload. prepare is part of set-up; warm is
// the untimed warm-up; pass is one of the equal measured passes; finish
// runs the checks that need every pass done.
type workloadRun interface {
	options(cfg runConfig, dir string) fixture.Options
	prepare(e *env) error
	warm(e *env) error
	pass(e *env, r *result) error
	finish(e *env, r *result) error
	// fullPasses is how many equal passes an untraced run makes to
	// measure for about seconds on the reference box.
	fullPasses(seconds int) int
	// paths lists the traced entry-point chains of this workload.
	paths(e *env) ([]tracePath, error)
	phases() (classify, secondary string)
}

// --- shared input builders ---------------------------------------------

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode request body: %v", err)) // only job records are ever encoded
	}
	return b
}

// singleClassifyOps is one POST /v1/classify per job, submission
// features only.
func singleClassifyOps(base string, jobs []*job.Job) []op {
	ops := make([]op, len(jobs))
	for i, j := range jobs {
		ops[i] = op{method: http.MethodPost, url: base + "/v1/classify",
			body: jsonBody([]*job.Job{fixture.Submission(j)}), jobs: 1}
	}
	return ops
}

// cycle returns n jobs taken round-robin from src starting at from.
func cycle(src []*job.Job, from, n int) []*job.Job {
	out := make([]*job.Job, n)
	for i := range out {
		out[i] = src[(from+i)%len(src)]
	}
	return out
}

// uniqueVariants returns submissions of jobs whose job name (and ID)
// carry a token no earlier request had: same shape of work, but the
// feature string has never been embedded, so the cache cannot hit and
// no two jobs of a batch share a vector.
func (e *env) uniqueVariants(jobs []*job.Job) []*job.Job {
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		e.uniq++
		s := fixture.Submission(j)
		s.ID = fmt.Sprintf("%s~u%d", j.ID, e.uniq)
		s.Name = fmt.Sprintf("%s~u%d", j.Name, e.uniq)
		out[i] = s
	}
	return out
}

// expect classifies jobs in-process on fw — the reference every HTTP
// prediction must equal — and merges job ID → class into want.
func expect(fw *core.Framework, jobs []*job.Job, want map[string]string) error {
	subs := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		subs[i] = fixture.Submission(j)
	}
	preds, err := fw.ClassifyJobs(context.Background(), subs)
	if err != nil {
		return fmt.Errorf("reference ClassifyJobs: %w", err)
	}
	for _, p := range preds {
		want[p.JobID] = p.Class
	}
	return nil
}

// coldPass sends n single-job POST /v1/classify requests to base, each a
// never-seen variant of one of inputs, from both clients, and books them
// to p (nil during warm-up). The reference predictions are computed
// after the HTTP pass: computed before, they would warm the cache.
func coldPass(e *env, p *phase, base string, inputs []*job.Job, n int) error {
	jobs := e.uniqueVariants(cycle(inputs, e.uniq, n))
	ops := singleClassifyOps(base, jobs)
	var s []sample
	e.observe(func() { s, _ = runClients(e.clients, ops) }, p)
	if p != nil {
		p.addPass(s, stretch)
	}
	want := map[string]string{}
	if err := expect(e.fx.Primary().FW, jobs, want); err != nil {
		return err
	}
	return checkPredictions(s, want, nil)
}

// slice returns ops[at:at+n] of the ring ops, wrapping around.
func slice(ops []op, at, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = ops[(at+i)%len(ops)]
	}
	return out
}

// scoreHeld sets the result's F1 from predicted classes of held-out jobs.
func scoreHeld(e *env, r *result, predicted map[string]string) error {
	f1, n, err := f1Macro(e.fx.Trace.Held, predicted)
	if err != nil {
		return err
	}
	r.f1, r.f1Jobs = f1, n
	return nil
}

// --- qsub_knn_s30 --------------------------------------------------------

// qsubKNN: single-job POST /v1/classify straight at one KNN node. The
// classify phase sends held-out submissions whose feature strings the
// warm-up has put in the embedding cache; the secondary phase sends the
// same jobs under never-seen names, so every embedding is computed.
// Real traffic is a mix of the two (about nine hits in ten on this
// trace); the phases bracket it.
type qsubKNN struct {
	inputs []*job.Job
	hot    []op // one per input; the passes go round it
	at     int
	want   map[string]string
	got    map[string]string
}

const (
	qsubKNNInputs  = 2000 // held-out jobs the seed draws
	qsubKNNHotOps  = 600  // per pass, both clients together
	qsubKNNColdOps = 200
)

func (*qsubKNN) fullPasses(seconds int) int { return 2 * seconds }

func (w *qsubKNN) phases() (string, string) { return "classify_hot", "classify_cold" }

func (w *qsubKNN) options(cfg runConfig, dir string) fixture.Options {
	// IVF on, not auto: the workload is about the index, and a seed whose
	// window dedupes to fewer groups than the auto threshold must not
	// silently turn it into a brute-force scan.
	return fixture.Options{Scale: cfg.scaleOr(30), Seed: cfg.TraceSeed, Dir: dir,
		Models: []core.ModelKind{core.ModelKNN}, IndexOn: true}
}

func (w *qsubKNN) prepare(e *env) error {
	w.inputs = e.sample(e.count(qsubKNNInputs))
	w.hot = singleClassifyOps(e.fx.Primary().URL, w.inputs)
	w.want, w.got = map[string]string{}, map[string]string{}
	return expect(e.fx.Primary().FW, w.inputs, w.want)
}

func (w *qsubKNN) warm(e *env) error {
	s, _ := runClients(e.clients, w.hot)
	if err := checkPredictions(s, w.want, nil); err != nil {
		return err
	}
	return w.cold(e, nil, 16)
}

func (w *qsubKNN) cold(e *env, p *phase, n int) error {
	return coldPass(e, p, e.fx.Primary().URL, w.inputs, n)
}

func (w *qsubKNN) pass(e *env, r *result) error {
	ops := slice(w.hot, w.at, e.count(qsubKNNHotOps))
	w.at += len(ops)
	var s []sample
	e.observe(func() { s, _ = runClients(e.clients, ops) }, &r.classify)
	r.classify.addPass(s, stretch)
	if err := checkPredictions(s, w.want, w.got); err != nil {
		return err
	}
	return w.cold(e, &r.secondary, e.count(qsubKNNColdOps))
}

func (w *qsubKNN) finish(e *env, r *result) error { return scoreHeld(e, r, w.got) }

// --- qsub_rf_routed_s30 --------------------------------------------------

// qsubRouted: the paper's fetch-by-ID trigger through the front door.
// Classify phase: GET /v1/classify/{id} via the router, which sends
// reads to the live-tailing follower. Secondary phase: single-job POST
// /v1/classify of never-seen names via the router, which forwards a
// POST to the leader — the cold embedding and the write-forward hop.
type qsubRouted struct {
	inputs []*job.Job
	hot    []op // one per input; the passes go round it
	at     int
	want   map[string]string
	got    map[string]string
}

const (
	qsubRoutedInputs  = 4000 // held-out IDs the seed draws
	qsubRoutedHotOps  = 1500 // per pass, both clients together
	qsubRoutedColdOps = 1000
)

func (*qsubRouted) fullPasses(seconds int) int { return 2 * seconds }

func (w *qsubRouted) phases() (string, string) { return "routed_by_id", "routed_post_cold" }

func (w *qsubRouted) options(cfg runConfig, dir string) fixture.Options {
	return fixture.Options{Scale: cfg.scaleOr(30), Seed: cfg.TraceSeed, Dir: dir,
		Models: []core.ModelKind{core.ModelRF}, Cluster: true}
}

func byIDOps(base string, jobs []*job.Job) []op {
	ops := make([]op, len(jobs))
	for i, j := range jobs {
		ops[i] = op{method: http.MethodGet, url: base + "/v1/classify/" + j.ID, jobs: 1}
	}
	return ops
}

func (w *qsubRouted) prepare(e *env) error {
	w.inputs = e.sample(e.count(qsubRoutedInputs))
	w.hot = byIDOps(e.fx.RouterURL, w.inputs)
	w.want, w.got = map[string]string{}, map[string]string{}
	return expect(e.fx.Primary().FW, w.inputs, w.want)
}

func (w *qsubRouted) warm(e *env) error {
	// Every drawn ID once: fills the follower's embedding cache.
	s, _ := runClients(e.clients, w.hot)
	if err := checkPredictions(s, w.want, nil); err != nil {
		return err
	}
	return w.cold(e, nil, 16)
}

func (w *qsubRouted) cold(e *env, p *phase, n int) error {
	return coldPass(e, p, e.fx.RouterURL, w.inputs, n)
}

func (w *qsubRouted) pass(e *env, r *result) error {
	ops := slice(w.hot, w.at, e.count(qsubRoutedHotOps))
	w.at += len(ops)
	var s []sample
	e.observe(func() { s, _ = runClients(e.clients, ops) }, &r.classify)
	r.classify.addPass(s, stretch)
	if err := checkPredictions(s, w.want, w.got); err != nil {
		return err
	}
	if err := checkRouted(s); err != nil {
		return err
	}
	return w.cold(e, &r.secondary, e.count(qsubRoutedColdOps))
}

func (w *qsubRouted) finish(e *env, r *result) error { return scoreHeld(e, r, w.got) }

// checkRouted fails on a stale routed read: with a healthy fleet no read
// may carry the staleness header. Which backend answered is not
// checked — a read that outlasts the hedge delay is legitimately raced
// against the leader — but counted (router.follower_read_share).
func checkRouted(samples []sample) error {
	for _, s := range samples {
		if s.ok() && s.stale {
			return fmt.Errorf("router served a stale read from %s", s.backend)
		}
	}
	return nil
}

// --- window_rf_s30 -------------------------------------------------------

// windowRF: the periodic trigger, 1 000-job POST /v1/classify bodies at
// one RF node from one client (the node's worker pool owns the cores).
// Classify phase (dup): consecutive held-out slices with the trace's
// own batch duplication. Secondary phase (unique): the same jobs, each
// under a never-seen name — no cache hit, no in-batch duplicate.
type windowRF struct {
	slices [][]*job.Job
	dup    []op // one per slice; the passes go round it
	at     int
	want   map[string]string
	got    map[string]string
}

const (
	windowBatch  = 1000
	windowSlices = 8 // held-out windows the seed draws
	windowDup    = 5 // requests per pass
	windowUnique = 5
)

// A pass is 10 000 jobs and about 0.4 s. Two a second keep the
// never-seen names of a 25 s run at 250 K, far below the 1 M entries
// the embedding cache holds, so nothing is ever evicted.
func (*windowRF) fullPasses(seconds int) int { return 2 * seconds }

func (w *windowRF) phases() (string, string) { return "window_dup", "window_unique" }

func (w *windowRF) options(cfg runConfig, dir string) fixture.Options {
	return fixture.Options{Scale: cfg.scaleOr(30), Seed: cfg.TraceSeed, Dir: dir,
		Models: []core.ModelKind{core.ModelRF}}
}

func batchOp(base string, jobs []*job.Job) op {
	subs := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		subs[i] = fixture.Submission(j)
	}
	return op{method: http.MethodPost, url: base + "/v1/classify", body: jsonBody(subs), jobs: len(jobs)}
}

// prepare draws the windows: runs of consecutive held-out jobs — so each
// keeps the trace's own batch duplication — starting where the seed says.
func (w *windowRF) prepare(e *env) error {
	held := e.fx.Trace.Held
	size := min(windowBatch, len(held))
	rng := rand.New(rand.NewPCG(e.cfg.Seed, 0x77696e646f77)) // "window"
	w.want, w.got = map[string]string{}, map[string]string{}
	for i := 0; i < windowSlices; i++ {
		at := rng.IntN(len(held) - size + 1)
		sl := held[at : at+size]
		w.slices = append(w.slices, sl)
		w.dup = append(w.dup, batchOp(e.fx.Primary().URL, sl))
		if err := expect(e.fx.Primary().FW, sl, w.want); err != nil {
			return err
		}
	}
	return nil
}

func (w *windowRF) warm(e *env) error {
	s, _ := runClients(e.clients[:1], w.dup)
	if err := checkPredictions(s, w.want, nil); err != nil {
		return err
	}
	return w.unique(e, nil, 1)
}

func (w *windowRF) unique(e *env, p *phase, requests int) error {
	ops := make([]op, requests)
	var all []*job.Job
	for i := range ops {
		jobs := e.uniqueVariants(w.slices[(w.at+i)%len(w.slices)])
		all = append(all, jobs...)
		ops[i] = batchOp(e.fx.Primary().URL, jobs)
	}
	var s []sample
	e.observe(func() { s, _ = runClients(e.clients[:1], ops) }, p)
	if p != nil {
		p.addPass(s, 1)
	}
	want := map[string]string{}
	if err := expect(e.fx.Primary().FW, all, want); err != nil {
		return err
	}
	return checkPredictions(s, want, nil)
}

func (w *windowRF) pass(e *env, r *result) error {
	ops := slice(w.dup, w.at, e.count(windowDup))
	var s []sample
	e.observe(func() { s, _ = runClients(e.clients[:1], ops) }, &r.classify)
	r.classify.addPass(s, 1)
	if err := checkPredictions(s, w.want, w.got); err != nil {
		return err
	}
	if err := w.unique(e, &r.secondary, e.count(windowUnique)); err != nil {
		return err
	}
	w.at += len(ops)
	return nil
}

func (w *windowRF) finish(e *env, r *result) error { return scoreHeld(e, r, w.got) }

// --- ingest_mixed_s30 ----------------------------------------------------

// ingestMixed: completed jobs arrive while submissions are classified.
// Client A posts 100-job POST /v1/jobs bodies (a second trace, in
// end-time order) through the router to the leader's WAL (fsync always)
// and on to the follower; client B meanwhile does routed
// GET /v1/classify/{id}. Secondary = A's inserts, classify = B's reads.
type ingestMixed struct {
	feed   [][]*job.Job // 100-job batches not yet posted
	posted []string     // IDs of every acked job
	inputs []*job.Job
	want   map[string]string
}

// A pass inserts exactly as many records as the leader logs between two
// snapshots (the server's -snapshot-every default, 50 000), so every
// pass carries one background snapshot and a handful of follower polls
// instead of some passes having one and some none. Passes that long are
// made three times in 8 s.
const (
	ingestBatch          = 100
	ingestBatchesPerPass = 500
	ingestPasses         = 3
	ingestWarmBatches    = 10
	ingestInsertStretch  = 10 // batches: about 25 ms of client A
)

func (w *ingestMixed) phases() (string, string) { return "read_beside_write", "insert_batch100" }

func (w *ingestMixed) options(cfg runConfig, dir string) fixture.Options {
	return fixture.Options{Scale: cfg.scaleOr(30), Seed: cfg.TraceSeed, Dir: dir,
		Models: []core.ModelKind{core.ModelRF}, Cluster: true}
}

func (*ingestMixed) fullPasses(seconds int) int { return seconds * ingestPasses / 8 }

func (w *ingestMixed) prepare(e *env) error {
	perPass := e.count(ingestBatchesPerPass)
	// +1 pass of slack for the traced run's insert path.
	need := (perPass*(e.passes(w)+1) + ingestWarmBatches) * ingestBatch
	feedCfg := fixture.TraceConfig(1)
	perScale := feedCfg.JobsPerDay * int(fixture.TraceEnd.Sub(fixture.TraceStart).Hours()/24)
	feed, err := fixture.NewTrace(need/perScale+2, e.cfg.Seed+1)
	if err != nil {
		return fmt.Errorf("ingest feed: %w", err)
	}
	done := make([]*job.Job, 0, len(feed.Jobs))
	for _, j := range feed.Jobs {
		if !j.EndTime.IsZero() {
			c := *j
			c.ID = "feed-" + j.ID
			c.TrueLabel = job.Unknown
			done = append(done, &c)
		}
	}
	sort.SliceStable(done, func(a, b int) bool { return done[a].EndTime.Before(done[b].EndTime) })
	if len(done) < need {
		return fmt.Errorf("ingest feed has %d completed jobs, need %d", len(done), need)
	}
	for at := 0; at+ingestBatch <= need; at += ingestBatch {
		w.feed = append(w.feed, done[at:at+ingestBatch])
	}
	w.inputs = e.sample(math.MaxInt)
	w.want = map[string]string{}
	return expect(e.fx.Primary().FW, w.inputs, w.want)
}

// take removes the next n feed batches and returns them as insert ops.
func (w *ingestMixed) take(base string, n int) ([]op, [][]*job.Job, error) {
	if n > len(w.feed) {
		return nil, nil, fmt.Errorf("ingest feed exhausted: %d batches left, %d wanted", len(w.feed), n)
	}
	batches := w.feed[:n]
	w.feed = w.feed[n:]
	ops := make([]op, n)
	for i, b := range batches {
		ops[i] = op{method: http.MethodPost, url: base + "/v1/jobs", body: jsonBody(b), jobs: len(b)}
	}
	return ops, batches, nil
}

// acked records the jobs of every batch the server acknowledged.
func (w *ingestMixed) acked(samples []sample, batches [][]*job.Job) {
	for i, s := range samples {
		if s.ok() {
			for _, j := range batches[i] {
				w.posted = append(w.posted, j.ID)
			}
		}
	}
}

func (w *ingestMixed) read(e *env) func(i int) op {
	base := e.fx.RouterURL
	return func(i int) op {
		return op{method: http.MethodGet, url: base + "/v1/classify/" + w.inputs[i%len(w.inputs)].ID, jobs: 1}
	}
}

func (w *ingestMixed) warm(e *env) error {
	s, _ := runClients(e.clients, byIDOps(e.fx.RouterURL, w.inputs))
	if err := checkPredictions(s, w.want, nil); err != nil {
		return err
	}
	ops, batches, err := w.take(e.fx.RouterURL, ingestWarmBatches)
	if err != nil {
		return err
	}
	ws, _ := runClients(e.clients[:1], ops)
	w.acked(ws, batches)
	_, err = waitDrained(e.fx)
	return err
}

func (w *ingestMixed) pass(e *env, r *result) error {
	ops, batches, err := w.take(e.fx.RouterURL, e.count(ingestBatchesPerPass))
	if err != nil {
		return err
	}
	var aS, bS []sample
	e.observe(func() { aS, bS, _ = runBeside(e.clients[0], ops, e.clients[1], w.read(e)) }, &r.classify, &r.secondary)
	w.acked(aS, batches)
	r.secondary.addPass(aS, ingestInsertStretch)
	r.classify.addPass(bS, stretch)
	if err := checkPredictions(bS, w.want, nil); err != nil {
		return err
	}
	if err := checkRouted(bS); err != nil {
		return err
	}
	// The follower catches up before the next pass starts, so each pass
	// begins from the same replication state; the wait is not timed in.
	_, err = waitDrained(e.fx)
	return err
}

// waitDrained blocks until the follower holds as many jobs as the leader.
func waitDrained(fx *fixture.Fixture) (time.Duration, error) {
	t0 := time.Now()
	for !fx.Drained() {
		if time.Since(t0) > 30*time.Second {
			return time.Since(t0), fmt.Errorf("follower did not drain: %d of %d jobs after 30s",
				fx.Follower.Store.Len(), fx.Primary().Store.Len())
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0), nil
}

func (w *ingestMixed) finish(e *env, r *result) error {
	if _, err := waitDrained(e.fx); err != nil {
		return err
	}
	for _, id := range w.posted {
		if _, err := e.fx.Primary().Store.Get(id); err != nil {
			return fmt.Errorf("acked job %s missing on the leader: %w", id, err)
		}
		if _, err := e.fx.Follower.Store.Get(id); err != nil {
			return fmt.Errorf("acked job %s missing on the follower after drain: %w", id, err)
		}
	}
	r.extra["acked_jobs"] = float64(len(w.posted))
	// How many IDs client B got through depends on how fast the inserts
	// went, so F1 is scored on one more routed read of every held-out ID:
	// the same jobs on every run of a seed.
	s, _ := runClients(e.clients, byIDOps(e.fx.RouterURL, w.inputs))
	all := map[string]string{}
	if err := checkPredictions(s, w.want, all); err != nil {
		return err
	}
	return scoreHeld(e, r, all)
}

// --- retrain_live_s10 ----------------------------------------------------

// retrainLive: one store, two nodes with model persistence on — KNN
// with the IVF index forced on, and RF. Client A runs retrain cycles
// (POST /v1/train on the KNN node, then on the RF node, both as of the
// train instant); client B keeps sending single-job POST /v1/classify
// to the RF node, whose model is hot-swapped under it. Secondary = one
// cycle, classify = B's requests during it.
type retrainLive struct {
	inputs   []*job.Job
	hot      []op
	cycle    []op
	want     map[string]string // RF node
	wantKNN  map[string]string
	got      map[string]string
	labelled int // window jobs both fits consume per cycle
}

// A pass is one retrain cycle, about 1.6 s on the reference box.
func (*retrainLive) fullPasses(seconds int) int { return seconds * 5 / 8 }

func (w *retrainLive) phases() (string, string) { return "classify_during_retrain", "retrain_cycle" }

func (w *retrainLive) options(cfg runConfig, dir string) fixture.Options {
	return fixture.Options{Scale: cfg.scaleOr(10), Seed: cfg.TraceSeed, Dir: dir,
		Models: []core.ModelKind{core.ModelRF, core.ModelKNN}, IndexOn: true}
}

func (w *retrainLive) prepare(e *env) error {
	w.inputs = e.sample(math.MaxInt)
	rfNode, knnNode := e.fx.Node(core.ModelRF), e.fx.Node(core.ModelKNN)
	w.hot = singleClassifyOps(rfNode.URL, w.inputs)
	body := jsonBody(map[string]string{"now": fixture.TrainAt.Format(time.RFC3339)})
	w.cycle = []op{
		{method: http.MethodPost, url: knnNode.URL + "/v1/train", body: body},
		{method: http.MethodPost, url: rfNode.URL + "/v1/train", body: body},
	}
	w.want, w.wantKNN, w.got = map[string]string{}, map[string]string{}, map[string]string{}
	for _, rep := range e.fx.TrainReports {
		w.labelled += rep.LabeledJobs
	}
	if err := expect(rfNode.FW, w.inputs, w.want); err != nil {
		return err
	}
	return expect(knnNode.FW, w.inputs, w.wantKNN)
}

func (w *retrainLive) warm(e *env) error {
	s, _ := runClients(e.clients[:1], w.hot)
	return checkPredictions(s, w.want, nil)
}

func (w *retrainLive) pass(e *env, r *result) error {
	var aS, bS []sample
	var wall time.Duration
	e.observe(func() {
		aS, bS, wall = runBeside(e.clients[0], w.cycle, e.clients[1], func(i int) op { return w.hot[i%len(w.hot)] })
	}, &r.classify, &r.secondary)
	// One cycle is one secondary sample: its latency is the whole pass.
	cycleSample := sample{at: aS[0].at, dur: wall, jobs: w.labelled, status: http.StatusOK}
	for _, s := range aS {
		if !s.ok() {
			cycleSample = s
		}
	}
	r.secondary.addPass([]sample{cycleSample}, 1)
	r.classify.addPass(bS, stretch)
	// Both fits are seeded and see the same window, so every published
	// model must predict exactly what the first one did.
	return checkPredictions(bS, w.want, nil)
}

func (w *retrainLive) finish(e *env, r *result) error {
	// Score both models over the whole held-out set after the last publish.
	rfNode, knnNode := e.fx.Node(core.ModelRF), e.fx.Node(core.ModelKNN)
	s, _ := runClients(e.clients, w.hot)
	if err := checkPredictions(s, w.want, w.got); err != nil {
		return err
	}
	gotKNN := map[string]string{}
	s, _ = runClients(e.clients, singleClassifyOps(knnNode.URL, w.inputs))
	if err := checkPredictions(s, w.wantKNN, gotKNN); err != nil {
		return err
	}
	f1KNN, _, err := f1Macro(e.fx.Trace.Held, gotKNN)
	if err != nil {
		return err
	}
	r.extra["f1_macro_knn"] = f1KNN
	_, vRF, _ := rfNode.FW.ModelInfo()
	_, vKNN, _ := knnNode.FW.ModelInfo()
	r.extra["model_version_rf"], r.extra["model_version_knn"] = float64(vRF), float64(vKNN)
	return scoreHeld(e, r, w.got)
}
