// Package core wires the four MCBound components — Data Fetcher, Feature
// Encoder, Job Characterizer and Classification Model — into the two
// CI/CD workflows of the paper's Figure 1: the Training Workflow
// (periodic retraining on recent data) and the Inference Workflow
// (classification of newly submitted jobs before execution).
//
// The serving path is lock-free: the currently deployed model, its
// version and its training instant live in one immutable modelState
// published through an atomic pointer, so a retrain never blocks a
// classification and a classification always observes a consistent
// (model, version, trained-at) triple. Overlapping Training Workflow
// triggers are single-flighted: the first caller trains, later callers
// wait for — and share — its result instead of racing a second fit.
package core

import (
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mcbound/internal/encode"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/baseline"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
	"mcbound/internal/online"
	"mcbound/internal/persist"
	"mcbound/internal/roofline"
	"mcbound/internal/stats"
)

// ErrNotTrained is the sentinel returned by inference before the first
// successful Training Workflow; callers branch with errors.Is (the HTTP
// layer maps it to 503).
var ErrNotTrained = errors.New("core: no trained model (run the Training Workflow first)")

// ErrTrainFetch is wrapped by Train when the jobs data storage could not
// deliver the training window: nothing was fetched, so nothing was
// labeled or fitted, and the previous model keeps serving.
var ErrTrainFetch = errors.New("core: training fetch")

// ModelKind selects the Classification Model algorithm.
type ModelKind string

// Supported algorithms. ModelBaseline is the (job name, #cores) lookup
// table of §V.C.a: it has no vector model, so a deployment configured
// with it serves from the lookup slot the others hold only as their
// degraded net. It is the evaluation's comparison point, not a serving
// option (node.Validate accepts knn and rf only), and is not persistable.
const (
	ModelKNN      ModelKind = "knn"
	ModelRF       ModelKind = "rf"
	ModelBaseline ModelKind = "baseline"
)

// Config configures a Framework deployment for a target system.
type Config struct {
	// Machine provides the per-node peaks the Job Characterizer needs;
	// defaults to Fugaku.
	Machine job.MachineSpec

	// Features is the encoder's feature subset; nil selects the paper's
	// augmented set.
	Features []encode.Feature

	// Model picks the algorithm; KNN/RF hold its hyper-parameters.
	Model ModelKind
	KNN   knn.Config
	RF    rf.Config

	// ModelFactory, when non-nil, overrides Model/KNN/RF: every Training
	// Workflow trigger calls it for the fresh Classifier instance it
	// fits. It is the injection seam for custom algorithms and for the
	// concurrency tests, which need gated or instrumented models. Its
	// models' Predict must be a function of the instance and the vector:
	// the serving path memoizes a label per (snapshot, feature string).
	ModelFactory func() (ml.Classifier, error)

	// Params is the online algorithm's setting (§III-E): train on the
	// jobs executed in the last Alpha days — or since the first Training
	// Workflow's window start under AlphaPlus — optionally on a Theta
	// subsample of them, once every Beta days.
	online.Params

	// ModelDir, when non-empty, enables versioned model persistence.
	ModelDir string
}

// DefaultConfig returns the Fugaku deployment settings the paper
// concludes with: RF with α=15, β=1.
func DefaultConfig() Config {
	return Config{
		Machine: job.FugakuSpec(),
		Model:   ModelRF,
		KNN:     knn.DefaultConfig(),
		RF:      rf.DefaultConfig(),
		Params:  online.Params{Alpha: 15, Beta: 1},
	}
}

// keptModelVersions is how many versions of a model stay in ModelDir
// after a retrain: the one just published plus enough history for
// LoadLatest to step over a corrupted newest file.
const keptModelVersions = 5

// modelState is the immutable snapshot the Inference Workflow serves
// from. A retrain builds a whole new state and publishes it with one
// atomic store, so readers can never observe a torn (model, version)
// pair or a model that has not finished fitting.
type modelState struct {
	model     ml.Classifier // nil until trained, and always under ModelBaseline
	trained   bool
	version   int // registry version, 0 when persistence is disabled
	trainedAt time.Time

	// stamp names the labels this snapshot's model gives: fresh and
	// nonzero for every published vector model (each Train and
	// LoadLatest; a published model never changes), so a label noted on
	// an embedding-cache entry under one snapshot never answers for
	// another. 0 without a vector model.
	stamp uint64

	// lookup is the (job name, #cores) table fitted on the last labeled
	// window. Whenever it is set, inference answers from it: as the
	// deployment's model under ModelBaseline (trained), and otherwise as
	// the degraded-serving net while no vector model has ever trained —
	// a Training Workflow whose model fit failed still leaves the
	// framework able to answer. A trained vector snapshot carries none.
	lookup ml.JobClassifier
}

// trainCall is one in-flight Training Workflow execution shared by
// coalesced callers.
type trainCall struct {
	done chan struct{} // closed when rep/err are final
	rep  *TrainReport
	err  error
}

// Framework is a deployed MCBound instance.
type Framework struct {
	cfg           Config
	name          string // the configured algorithm's, as models and the registry spell it
	fetcher       *fetch.Fetcher
	encoder       *encode.Encoder
	characterizer *roofline.Characterizer
	registry      *persist.Registry

	// state is the hot-swapped serving snapshot; never nil after New.
	state atomic.Pointer[modelState]

	// trainMu guards inflight (the single-flight slot). It is never held
	// while fetching, characterizing, encoding or fitting — only for the
	// pointer bookkeeping around a trigger.
	trainMu   sync.Mutex
	inflight  *trainCall
	inflightN atomic.Int32 // 0 or 1; sampled by the train-inflight gauge
	degradedN atomic.Int64 // predictions served by the lookup fallback
	memoN     atomic.Int64 // predictions answered from an embedding-cache note
	stamps    atomic.Uint64

	// rng and anchor belong to the single-flighted train: one θ-random
	// stream across every trigger of the deployment (so a period's
	// subsamples repeat for a seed), and the window start the first
	// Training Workflow used, which AlphaPlus never moves again.
	rng    *stats.RNG
	anchor time.Time

	// indexOv holds runtime overrides of the KNN index switch (set via
	// /v1/train or the -index/-nprobe flags); nil means the deployment
	// config applies unchanged. Trains merge it into their model config;
	// a model already published keeps the options it was built with.
	indexOv atomic.Pointer[indexOverride]
}

// indexOverride is one immutable override snapshot.
type indexOverride struct {
	mode   knn.IndexMode // "" = leave configured mode
	nprobe int           // 0 = leave configured nprobe
}

// New builds a Framework over a jobs-data-storage backend.
func New(cfg Config, backend fetch.Backend) (*Framework, error) {
	if cfg.Machine.PeakGFlops == 0 {
		cfg.Machine = job.FugakuSpec()
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 15
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 1
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	f, err := fetch.New(backend)
	if err != nil {
		return nil, err
	}
	fw := &Framework{
		cfg:           cfg,
		name:          string(ModelBaseline),
		fetcher:       f,
		encoder:       encode.NewEncoder(cfg.Features, nil),
		characterizer: roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine)),
		rng:           stats.NewRNG(cfg.Seed),
	}
	if cfg.Model != ModelBaseline {
		model, err := buildModel(cfg)
		if err != nil {
			return nil, err
		}
		fw.name = model.Name()
	} else if cfg.ModelDir != "" {
		return nil, fmt.Errorf("core: model %s is not persistable", fw.name)
	}
	fw.state.Store(&modelState{})
	if cfg.ModelDir != "" {
		reg, err := persist.NewRegistry(cfg.ModelDir)
		if err != nil {
			return nil, err
		}
		fw.registry = reg
	}
	return fw, nil
}

func buildModel(cfg Config) (ml.Classifier, error) {
	if cfg.ModelFactory != nil {
		return cfg.ModelFactory()
	}
	switch cfg.Model {
	case ModelKNN:
		return knn.New(cfg.KNN), nil
	case ModelRF, "":
		return rf.New(cfg.RF), nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", cfg.Model)
	}
}

// Config returns the deployment configuration.
func (f *Framework) Config() Config { return f.cfg }

// SetIndexOptions overrides the KNN index options of every model a
// Training Workflow builds from now on: mode must be "", "auto", "on" or
// "off" ("" leaves the configured mode); nprobe sets the cells scanned
// per query in place of the build's calibration (0 leaves it). The
// served model keeps the options it was built with.
func (f *Framework) SetIndexOptions(mode string, nprobe int) error {
	switch knn.IndexMode(mode) {
	case "", knn.IndexAuto, knn.IndexOn, knn.IndexOff:
	default:
		return fmt.Errorf("core: index mode %q (want auto, on or off)", mode)
	}
	if nprobe < 0 {
		return fmt.Errorf("core: nprobe %d must be non-negative", nprobe)
	}
	prev := f.indexOv.Load()
	ov := indexOverride{}
	if prev != nil {
		ov = *prev
	}
	if mode != "" {
		ov.mode = knn.IndexMode(mode)
	}
	if nprobe > 0 {
		ov.nprobe = nprobe
	}
	f.indexOv.Store(&ov)
	return nil
}

// IndexInfo snapshots the served model's search structure (zero value
// when the model is brute-force or not index-capable).
func (f *Framework) IndexInfo() ml.IndexInfo {
	if ix, ok := f.state.Load().model.(ml.Indexed); ok {
		return ix.IndexInfo()
	}
	return ml.IndexInfo{}
}

// modelConfig merges the runtime index override into the deployment
// config for the next model build.
func (f *Framework) modelConfig() Config {
	cfg := f.cfg
	if ov := f.indexOv.Load(); ov != nil {
		if ov.mode != "" {
			cfg.KNN.Index.Mode = ov.mode
		}
		if ov.nprobe > 0 {
			cfg.KNN.Index.NProbe = ov.nprobe
		}
	}
	return cfg
}

// Characterizer exposes the Job Characterizer (for analysis use).
func (f *Framework) Characterizer() *roofline.Characterizer { return f.characterizer }

// Encoder exposes the Feature Encoder.
func (f *Framework) Encoder() *encode.Encoder { return f.encoder }

// Fetcher exposes the Data Fetcher.
func (f *Framework) Fetcher() *fetch.Fetcher { return f.fetcher }

// TrainReport summarizes one Training Workflow execution.
type TrainReport struct {
	WindowStart, WindowEnd time.Time
	FetchedJobs            int
	LabeledJobs            int
	FittedJobs             int // rows the model was fitted on: the labeled jobs, or their θ-subsample
	SkippedJobs            int
	QuarantinedJobs        int // jobs dropped for pathological PMU counters (NaN/Inf/negative)
	TrainDuration          time.Duration
	ModelVersion           int // 0 when persistence is disabled

	// Coalesced marks a trigger that arrived while another train was in
	// flight and therefore shares that train's result instead of having
	// fitted a model itself.
	Coalesced bool
}

// TrainingInFlight reports whether a Training Workflow is currently
// executing (sampled by the mcbound_train_inflight gauge).
func (f *Framework) TrainingInFlight() bool { return f.inflightN.Load() > 0 }

// Train runs the Training Workflow as of now: fetch the jobs executed in
// the configured window ending now (the last α days, or everything since
// the first trigger's window start under α⁺), characterize them, keep a
// θ-subsample when one is configured, encode them and train a fresh
// Classification Model instance entirely outside any lock, then publish
// it with an atomic hot-swap, saving it to the registry when configured.
// A trigger that fails leaves the published snapshot as it was: the
// previous model keeps serving (stale beats dead).
//
// Overlapping triggers coalesce: if a train is already in flight the
// call waits for it and returns its report with Coalesced set, so a slow
// retrain under a burst of /v1/train requests and cron ticks fits one
// model, not one per trigger. The context bounds the fetch, is
// re-checked between the expensive phases, and also bounds a coalesced
// caller's wait.
func (f *Framework) Train(ctx context.Context, now time.Time) (*TrainReport, error) {
	f.trainMu.Lock()
	if c := f.inflight; c != nil {
		f.trainMu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: train coalesced wait: %w", ctx.Err())
		}
		if c.err != nil {
			return c.rep, c.err
		}
		rep := *c.rep
		rep.Coalesced = true
		return &rep, nil
	}
	c := &trainCall{done: make(chan struct{})}
	f.inflight = c
	f.inflightN.Store(1)
	f.trainMu.Unlock()

	c.rep, c.err = f.train(ctx, now)

	f.trainMu.Lock()
	f.inflight = nil
	f.inflightN.Store(0)
	f.trainMu.Unlock()
	close(c.done)
	return c.rep, c.err
}

// train is the single-flighted Training Workflow body. It holds no lock:
// the only synchronization with the serving path is the final atomic
// publish.
func (f *Framework) train(ctx context.Context, now time.Time) (*TrainReport, error) {
	start := now.AddDate(0, 0, -f.cfg.Alpha)
	if f.cfg.AlphaPlus {
		if f.anchor.IsZero() {
			f.anchor = start
		}
		start = f.anchor
	}
	window, err := f.fetcher.FetchExecuted(ctx, start, now)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTrainFetch, err)
	}
	rep := &TrainReport{WindowStart: start, WindowEnd: now, FetchedJobs: len(window)}

	rep.LabeledJobs, rep.SkippedJobs, rep.QuarantinedJobs = f.characterizer.GenerateLabels(window)
	jobs, labels := online.FilterLabeled(window)
	if len(jobs) == 0 {
		return rep, fmt.Errorf("core: no characterizable jobs in [%v, %v)", start, now)
	}
	if idx := online.SubsampleIndices(f.cfg.Params, len(jobs), f.rng); idx != nil {
		sj, sl := make([]*job.Job, len(idx)), make([]job.Label, len(idx))
		for i, k := range idx {
			sj[i], sl[i] = jobs[k], labels[k]
		}
		jobs, labels = sj, sl
	}
	rep.FittedJobs = len(jobs)

	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("core: train canceled: %w", err)
	}

	cur := f.state.Load()
	if f.cfg.Model == ModelBaseline {
		// The lookup table is this deployment's model, not its net.
		t0 := time.Now()
		lookup := baseline.New()
		if err := lookup.TrainJobs(jobs, labels); err != nil {
			return rep, fmt.Errorf("core: train: %w", err)
		}
		rep.TrainDuration = time.Since(t0)
		f.state.Store(&modelState{lookup: lookup, trained: true, trainedAt: now})
		return rep, nil
	}

	// Before the first successful vector fit, also fit the lookup table
	// on this window: if the model fit below fails, inference can still
	// answer (degraded) instead of returning ErrNotTrained.
	var lookup ml.JobClassifier
	if !cur.trained {
		lk := baseline.New()
		if err := lk.TrainJobs(jobs, labels); err == nil {
			lookup = lk
		}
	}

	model, err := buildModel(f.modelConfig()) // fresh instance per trigger
	if err != nil {
		f.publishFallback(cur, lookup)
		return rep, err
	}
	// A KNN keeps the window's distinct vectors as its group matrix, so
	// it is handed them once, in one slab it owns. A forest bins its
	// vectors and drops them: it takes the shared per-string vectors.
	var fit func() error
	if kc, ok := model.(*knn.Classifier); ok {
		data, row := f.encoder.EncodeMatrix(jobs)
		fit = func() error { return kc.TrainMatrix(data, f.encoder.Dim(), row, labels) }
	} else {
		enc := f.encoder.Encode(jobs)
		fit = func() error { return model.Train(enc, labels) }
	}
	t0 := time.Now()
	if err := fit(); err != nil {
		f.publishFallback(cur, lookup)
		return rep, fmt.Errorf("core: train: %w", err)
	}
	rep.TrainDuration = time.Since(t0)

	// Persistence failures degrade durability, not serving: the fresh
	// model is published either way and the error is surfaced so the
	// operator learns the registry is unwritable. Older versions are
	// pruned behind the one just saved, or a daily retrain grows
	// ModelDir by one model file a day for ever.
	var persistErr error
	if f.registry != nil {
		if pm, ok := model.(persist.Model); !ok {
			persistErr = fmt.Errorf("core: model %s is not persistable", f.name)
		} else if v, err := f.registry.Save(f.name, pm); err != nil {
			persistErr = err
		} else {
			rep.ModelVersion = v
			persistErr = f.registry.Prune(f.name, keptModelVersions)
		}
	}

	f.state.Store(&modelState{
		model: model, trained: true,
		version: rep.ModelVersion, trainedAt: now,
		stamp: f.stamps.Add(1),
	})
	return rep, persistErr
}

// publishFallback installs the lookup table as the serving net after a
// failed fit, but only while no vector model has ever trained — a
// trained snapshot always beats the baseline (stale beats degraded).
func (f *Framework) publishFallback(cur *modelState, lookup ml.JobClassifier) {
	if cur.trained || lookup == nil {
		return
	}
	// CAS, not Store: a concurrent LoadLatest may have restored a real
	// model since cur was read, and that always wins over the baseline.
	f.state.CompareAndSwap(cur, &modelState{lookup: lookup})
}

// LoadReport summarizes a crash-recovery load: which version is now
// serving and which stored versions were skipped as corrupted.
type LoadReport struct {
	Version     int
	Quarantined []int
}

// LoadLatest restores the newest valid persisted model instead of
// training, e.g. after a restart. Corrupted or truncated version files
// are skipped (and reported as quarantined) so one bad write cannot
// block recovery. It fails when persistence is disabled or no stored
// version unmarshals.
func (f *Framework) LoadLatest() (*LoadReport, error) {
	if f.registry == nil {
		return nil, fmt.Errorf("core: persistence disabled")
	}
	probe, err := buildModel(f.cfg)
	if err != nil {
		return nil, err
	}
	if _, ok := probe.(persist.Model); !ok {
		return nil, fmt.Errorf("core: model %s is not persistable", f.name)
	}
	loaded, v, quarantined, err := f.registry.LoadLatestValid(f.name, func() (encoding.BinaryUnmarshaler, error) {
		m, err := buildModel(f.cfg)
		if err != nil {
			return nil, err
		}
		return m.(persist.Model), nil
	})
	rep := &LoadReport{Version: v, Quarantined: quarantined}
	if err != nil {
		return rep, err
	}
	// The restored model is as old as its file, not as young as this
	// process: staleness, /healthz and /v1/model keep counting from the
	// Training Workflow that wrote it.
	savedAt, err := f.registry.SavedAt(f.name, v)
	if err != nil {
		return rep, err
	}
	f.state.Store(&modelState{
		model: loaded.(ml.Classifier), trained: true,
		version: v, trainedAt: savedAt,
		stamp: f.stamps.Add(1),
	})
	return rep, nil
}

// Prediction pairs a job with its predicted class and the version of the
// model that produced it. Degraded marks predictions served by the
// lookup fallback while no vector model was available.
type Prediction struct {
	JobID        string    `json:"job_id"`
	Label        job.Label `json:"-"`
	Class        string    `json:"class"`
	ModelVersion int       `json:"model_version"`
	Degraded     bool      `json:"degraded,omitempty"`
}

// AppendJSON appends to dst the bytes json.Marshal(p) returns and
// returns the extended slice. It is the encoder of the classify
// responses, which render thousands of these per request; json.Marshal
// stays the reference it is fuzzed against (FuzzAppendPrediction).
func (p Prediction) AppendJSON(dst []byte) []byte {
	dst = appendJSONString(append(dst, `{"job_id":`...), p.JobID)
	dst = appendJSONString(append(dst, `,"class":`...), p.Class)
	dst = strconv.AppendInt(append(dst, `,"model_version":`...), int64(p.ModelVersion), 10)
	if p.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}')
}

// appendJSONString quotes s. Printable ASCII other than the five bytes
// encoding/json escapes (it is HTML-safe by default) is copied as it
// stands; a string with anything else is the library's to render.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ', c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Trained reports whether a model instance is available for inference.
func (f *Framework) Trained() bool { return f.state.Load().trained }

// Ready reports whether inference can answer at all: a trained vector
// model or, degraded, the lookup fallback.
func (f *Framework) Ready() bool {
	st := f.state.Load()
	return st.trained || st.lookup != nil
}

// Degraded reports whether inference is being served by the lookup
// fallback because no vector model has ever trained.
func (f *Framework) Degraded() bool {
	st := f.state.Load()
	return !st.trained && st.lookup != nil
}

// DegradedPredictions returns how many predictions the lookup fallback
// has served (sampled by the mcbound_classify_degraded gauge).
func (f *Framework) DegradedPredictions() int64 { return f.degradedN.Load() }

// MemoHits returns how many predictions were answered from a label noted
// on an embedding-cache entry, with no vector and no model (sampled by
// the mcbound_classify_memo_hits gauge).
func (f *Framework) MemoHits() int64 { return f.memoN.Load() }

// ModelAge returns the age of the served model snapshot relative to
// now; ok is false while no model has ever trained (the
// mcbound_model_staleness_seconds gauge then reads 0).
func (f *Framework) ModelAge(now time.Time) (age time.Duration, ok bool) {
	st := f.state.Load()
	if !st.trained {
		return 0, false
	}
	return now.Sub(st.trainedAt), true
}

// ModelInfo describes the currently served model. The algorithm is the
// deployment's; version and training instant come from one atomic
// snapshot, so they are always consistent with each other even while a
// retrain is publishing.
func (f *Framework) ModelInfo() (name string, version int, trainedAt time.Time) {
	st := f.state.Load()
	return f.name, st.version, st.trainedAt
}

// ClassifyJobs runs the Inference Workflow on explicit job records
// (e.g. just-submitted jobs pushed by the scheduler hook). The model's
// work is done once per distinct submission: jobs with equal feature
// strings are encoded and predicted as one row and the label is
// scattered back, so result order matches input order. A string whose
// cache entry carries this snapshot's label needs neither (a recurring
// submission); the model predicts the rest. The encoder and the model
// each split their rows across the cores themselves; the context is
// checked before each of the two. Every prediction in the batch comes
// from the same model snapshot.
func (f *Framework) ClassifyJobs(ctx context.Context, jobs []*job.Job) ([]Prediction, error) {
	st := f.state.Load()
	if !st.trained && st.lookup == nil {
		return nil, ErrNotTrained
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st.lookup != nil {
		// The (job name, #cores) table: the model of a ModelBaseline
		// deployment, or — degraded — the net of one whose vector model
		// has never trained, answering rather than 503.
		labels, err := st.lookup.PredictJobs(jobs)
		if err != nil {
			return nil, fmt.Errorf("core: lookup predict: %w", err)
		}
		if !st.trained {
			f.degradedN.Add(int64(len(jobs)))
		}
		out := make([]Prediction, len(jobs))
		for i, j := range jobs {
			out[i] = Prediction{
				JobID: j.ID, Label: labels[i], Class: labels[i].String(),
				Degraded: !st.trained,
			}
		}
		return out, nil
	}
	dist, rows := f.encoder.EncodeDistinct(jobs, st.stamp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := f.predictDistinct(st, dist); err != nil {
		return nil, err
	}
	out := make([]Prediction, len(jobs))
	memo := 0
	for i, j := range jobs {
		d := &dist[rows[i]]
		if d.Vec == nil {
			memo++
		}
		l := job.Label(encode.NotePayload(d.Note))
		out[i] = Prediction{
			JobID: j.ID, Label: l, Class: l.String(),
			ModelVersion: st.version,
		}
	}
	if memo > 0 {
		f.memoN.Add(int64(memo))
	}
	return out, nil
}

// predictDistinct gives every distinct string of a batch its label under
// st, as a note carrying st's stamp in dist[d].Note. A string already
// noted under that stamp keeps its note; the model predicts the rest in
// one call. A predicted label is written back onto the string's cache
// entry only when the string was a cache hit — second sight — so a name
// seen once never carries a note.
func (f *Framework) predictDistinct(st *modelState, dist []encode.Distinct) error {
	misses := 0
	for k := range dist {
		if dist[k].Vec != nil {
			misses++
		}
	}
	if misses == 0 {
		return nil
	}
	x := make([][]float32, 0, misses)
	for k := range dist {
		if dist[k].Vec != nil {
			x = append(x, dist[k].Vec)
		}
	}
	labels, err := st.model.Predict(x)
	if err != nil {
		return fmt.Errorf("core: predict: %w", err)
	}
	m := 0
	for k := range dist {
		d := &dist[k]
		if d.Vec == nil {
			continue
		}
		d.Note = encode.MakeNote(st.stamp, uint8(labels[m]))
		m++
		if d.Hit {
			f.encoder.SetNote(d, d.Note)
		}
	}
	return nil
}

// ClassifyByID classifies a single job fetched from the data storage
// (the per-submission inference trigger).
func (f *Framework) ClassifyByID(ctx context.Context, id string) (Prediction, error) {
	j, err := f.fetcher.FetchJob(ctx, id)
	if err != nil {
		return Prediction{}, err
	}
	out, err := f.ClassifyJobs(ctx, []*job.Job{j})
	if err != nil {
		return Prediction{}, err
	}
	return out[0], nil
}

// ClassifySubmitted classifies every job submitted in [start, end) (the
// periodic inference trigger).
func (f *Framework) ClassifySubmitted(ctx context.Context, start, end time.Time) ([]Prediction, error) {
	jobs, err := f.fetcher.FetchSubmitted(ctx, start, end)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	return f.ClassifyJobs(ctx, jobs)
}
