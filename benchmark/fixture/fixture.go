// Package fixture builds the one in-process deployment every benchmark
// workload runs against: trace(scale, seed) → store → framework → node,
// optionally wrapped as a durable leader with a live-tailing follower
// behind the router. Node and router options are the server binaries'
// flag defaults; nothing here is tuned for the benchmark.
package fixture

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/cluster"
	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/roofline"
	"mcbound/internal/router"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
	"mcbound/internal/workload"
)

// The trace period and the train instant shared by every scale: 18 days
// of submissions, the model trained on the α = 15 days before TrainAt,
// the last three days held out for scoring.
var (
	TraceStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	TrainAt    = time.Date(2024, 1, 16, 0, 0, 0, 0, time.UTC)
	TraceEnd   = time.Date(2024, 1, 19, 0, 0, 0, 0, time.UTC)
)

// Server flag defaults the fixture reproduces (cmd/mcbound-server).
const (
	serverMaxConcurrency = 64
	serverQueueDepth     = 128
	serverSnapshotEvery  = 50000
)

// TraceConfig is the sN shape cmd/mcbound-bench's index scenario uses:
// the application population, and with it the number of distinct
// feature strings, grows with the scale.
func TraceConfig(scale int) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Start, cfg.End = TraceStart, TraceEnd
	cfg.MaintenanceStart, cfg.MaintenanceEnd = time.Time{}, time.Time{}
	cfg.JobsPerDay = 55 * scale
	cfg.Users = 30 * scale
	cfg.InitialApps = 140 * scale
	cfg.AppBirthsPerDay = float64(scale)
	cfg.BatchMean = 3
	return cfg
}

// Trace is one generated job trace and its held-out tail.
type Trace struct {
	Scale int
	Seed  uint64
	// Jobs is the whole trace in submission order.
	Jobs []*job.Job
	// Held are the jobs submitted in [TrainAt, TraceEnd) that the
	// roofline characterizer could label; TrueLabel is their ground
	// truth. They never reach a training window.
	Held []*job.Job
	// GenerateDuration is the time Generator.Generate took.
	GenerateDuration time.Duration
}

// NewTrace generates the sN trace for seed and labels its held-out tail.
func NewTrace(scale int, seed uint64) (*Trace, error) {
	if scale < 1 {
		return nil, fmt.Errorf("fixture: scale %d < 1", scale)
	}
	cfg := TraceConfig(scale)
	t0 := time.Now()
	jobs, err := workload.NewGenerator(cfg, seed).Generate()
	if err != nil {
		return nil, fmt.Errorf("fixture: generate s%d: %w", scale, err)
	}
	tr := &Trace{Scale: scale, Seed: seed, Jobs: jobs, GenerateDuration: time.Since(t0)}
	var tail []*job.Job
	for _, j := range jobs {
		if !j.SubmitTime.Before(TrainAt) {
			tail = append(tail, j)
		}
	}
	roofline.NewCharacterizer(roofline.ModelFor(cfg.Machine)).GenerateLabels(tail)
	for _, j := range tail {
		if j.TrueLabel != job.Unknown {
			tr.Held = append(tr.Held, j)
		}
	}
	if len(tr.Held) == 0 {
		return nil, fmt.Errorf("fixture: s%d seed %d has no labelled held-out job", scale, seed)
	}
	return tr, nil
}

// Submission returns what a scheduler hook knows about j at qsub time:
// the submission features only, no execution data, counters or label.
func Submission(j *job.Job) *job.Job {
	return &job.Job{
		ID: j.ID, User: j.User, Name: j.Name, Environment: j.Environment,
		CoresRequested: j.CoresRequested, NodesRequested: j.NodesRequested,
		FreqRequested: j.FreqRequested, SubmitTime: j.SubmitTime,
	}
}

// Options select what Build deploys.
type Options struct {
	Scale int
	Seed  uint64
	// Models lists the model kinds to deploy, one node each over the same
	// store. The first is the primary: with Cluster it is the leader.
	Models []core.ModelKind
	// IndexOn forces the KNN IVF index on below the auto threshold.
	IndexOn bool
	// Cluster makes the primary a durable, WAL-shipping leader and adds a
	// live-tailing follower and the router in front of both.
	Cluster bool
	// Dir is a directory the fixture may fill (WAL, snapshots, model
	// versions). Required; the caller removes it.
	Dir string
}

// Node is one framework behind its HTTP API on a loopback socket.
type Node struct {
	Kind      core.ModelKind
	FW        *core.Framework
	Store     *store.Store
	Admission *admission.Controller
	API       *httpapi.Server
	URL       string

	srv   *httptest.Server
	mu    sync.Mutex
	built ml.Classifier
}

// Model returns the classifier instance the framework built last — after
// a successful Train or LoadLatest, the very instance being served, so
// ml/* can be timed on it directly.
func (n *Node) Model() ml.Classifier {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.built
}

// Fixture is a built deployment. Close releases it.
type Fixture struct {
	Opts  Options
	Trace *Trace
	// Nodes are the leader-side nodes, one per Options.Models entry.
	Nodes []*Node
	// Cluster parts; nil without Options.Cluster.
	Durable   *store.Durable
	Follower  *Node
	Tail      *repl.Follower
	Router    *router.Router
	RouterURL string

	// TrainReports and TrainWall record each leader-side node's initial
	// Training Workflow, by model kind.
	TrainReports map[core.ModelKind]*core.TrainReport
	TrainWall    map[core.ModelKind]time.Duration
	// InsertDuration is the time the trace took to load into the store.
	InsertDuration time.Duration

	cancel     context.CancelFunc
	background sync.WaitGroup
	transports []*http.Transport
	front      *httptest.Server
}

// Primary is the first leader-side node.
func (f *Fixture) Primary() *Node { return f.Nodes[0] }

// Node returns the leader-side node serving kind, or nil.
func (f *Fixture) Node(kind core.ModelKind) *Node {
	for _, n := range f.Nodes {
		if n.Kind == kind {
			return n
		}
	}
	return nil
}

// AllNodes lists every node of the deployment: the leader-side nodes
// and, in a cluster, the follower.
func (f *Fixture) AllNodes() []*Node {
	nodes := append([]*Node(nil), f.Nodes...)
	if f.Follower != nil {
		nodes = append(nodes, f.Follower)
	}
	return nodes
}

// Build deploys opts. On error everything already started is torn down.
func Build(opts Options) (*Fixture, error) {
	if len(opts.Models) == 0 {
		return nil, fmt.Errorf("fixture: no model kind requested")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("fixture: Options.Dir is required")
	}
	tr, err := NewTrace(opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fixture{
		Opts: opts, Trace: tr, cancel: cancel,
		TrainReports: map[core.ModelKind]*core.TrainReport{},
		TrainWall:    map[core.ModelKind]time.Duration{},
	}
	if err := f.build(ctx); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Fixture) build(ctx context.Context) error {
	st := store.New()
	t0 := time.Now()
	if err := st.Insert(f.Trace.Jobs...); err != nil {
		return fmt.Errorf("fixture: load trace: %w", err)
	}
	f.InsertDuration = time.Since(t0)

	var leaderRole *repl.Node
	if f.Opts.Cluster {
		// The trace seeds the initial snapshot, as on a leader's first boot.
		d, err := store.OpenDurable(filepath.Join(f.Opts.Dir, "leader"), st,
			store.DurableOptions{SnapshotEvery: serverSnapshotEvery})
		if err != nil {
			return fmt.Errorf("fixture: open durable store: %w", err)
		}
		f.Durable = d
		st = d.Store()
		leaderRole = repl.NewLeader(d)
	}

	for i, kind := range f.Opts.Models {
		apiOpts := httpapi.Options{}
		if i == 0 {
			apiOpts.Durable, apiOpts.Repl = f.Durable, leaderRole
		}
		n, err := f.newNode(kind, st, filepath.Join(f.Opts.Dir, "models-"+string(kind)), apiOpts)
		if err != nil {
			return err
		}
		f.Nodes = append(f.Nodes, n)
		t0 := time.Now()
		rep, err := n.FW.Train(ctx, TrainAt)
		if err != nil {
			return fmt.Errorf("fixture: initial %s training: %w", kind, err)
		}
		f.TrainWall[kind], f.TrainReports[kind] = time.Since(t0), rep
	}
	if f.Opts.Cluster {
		if err := f.buildFollower(ctx); err != nil {
			return err
		}
		return f.buildRouter(ctx)
	}
	return nil
}

// newNode wires store → resilient fetch → framework → admission → API
// the way cmd/mcbound-server does, and starts it on a loopback socket.
func (f *Fixture) newNode(kind core.ModelKind, st *store.Store, modelDir string, apiOpts httpapi.Options) (*Node, error) {
	n := &Node{Kind: kind, Store: st}
	cfg := core.DefaultConfig()
	cfg.Model = kind
	cfg.ModelDir = modelDir
	if f.Opts.IndexOn {
		cfg.KNN.Index.Mode = knn.IndexOn
	}
	cfg.ModelFactory = func() (ml.Classifier, error) {
		var c ml.Classifier
		switch kind {
		case core.ModelKNN:
			c = knn.New(cfg.KNN)
		case core.ModelRF:
			c = rf.New(cfg.RF)
		default:
			return nil, fmt.Errorf("fixture: unknown model kind %q", kind)
		}
		n.mu.Lock()
		n.built = c
		n.mu.Unlock()
		return c, nil
	}
	backend := fetch.NewResilientBackend(fetch.StoreBackend{Store: st}, fetch.DefaultResilienceConfig())
	fw, err := core.New(cfg, backend)
	if err != nil {
		return nil, fmt.Errorf("fixture: %s framework: %w", kind, err)
	}
	n.FW = fw
	n.Admission = admission.NewController(admission.Config{
		MaxConcurrency: serverMaxConcurrency,
		QueueDepth:     serverQueueDepth,
	})
	apiOpts.Registry = telemetry.NewRegistry()
	apiOpts.Breaker = backend.Breaker()
	apiOpts.Admission = n.Admission
	n.API = httpapi.New(fw, st, log.New(io.Discard, "", 0), apiOpts)
	n.srv = httptest.NewServer(n.API)
	n.URL = n.srv.URL
	return n, nil
}

// buildFollower starts a read-only replica that bootstraps from the
// leader's snapshot, restores the leader's newest persisted model (the
// -model-dir restart path, so set-up fits each model once, not once per
// node) and then tails the leader's WAL at the default poll cadence.
func (f *Fixture) buildFollower(ctx context.Context) error {
	leader := f.Primary()
	fst := store.New()
	rcfg := fetch.DefaultResilienceConfig()
	tail, err := repl.NewFollower(repl.FollowerConfig{
		Client: repl.NewClient(repl.ClientConfig{
			BaseURL: leader.URL,
			HTTP:    &http.Client{Timeout: 30 * time.Second, Transport: f.transport()},
			Retry:   rcfg.Retry,
			Breaker: rcfg.Breaker,
			Seed:    f.Opts.Seed,
			Budget:  resilience.NewBudget(resilience.BudgetConfig{}),
		}),
		Apply: func(payload []byte) error {
			var j job.Job
			if err := json.Unmarshal(payload, &j); err != nil {
				return err
			}
			return fst.Insert(&j)
		},
		Seed: f.Opts.Seed,
	})
	if err != nil {
		return fmt.Errorf("fixture: follower: %w", err)
	}
	f.Tail = tail
	if err := tail.SyncNow(ctx); err != nil {
		return fmt.Errorf("fixture: follower bootstrap: %w", err)
	}
	role := repl.NewFollowerNode(tail, leader.URL, repl.PromotePlan{
		Dir: filepath.Join(f.Opts.Dir, "follower"), Store: fst,
	})
	n, err := f.newNode(leader.Kind, fst, filepath.Join(f.Opts.Dir, "models-"+string(leader.Kind)),
		httpapi.Options{Repl: role})
	if err != nil {
		return err
	}
	f.Follower = n
	if _, err := n.FW.LoadLatest(); err != nil {
		return fmt.Errorf("fixture: follower model restore: %w", err)
	}
	f.background.Add(1)
	go func() {
		defer f.background.Done()
		tail.Run(ctx)
	}()
	return nil
}

func (f *Fixture) buildRouter(ctx context.Context) error {
	rt, err := router.New(router.Config{
		Backends: []cluster.Member{
			{ID: "n1", URL: f.Primary().URL},
			{ID: "n2", URL: f.Follower.URL},
		},
		Seed:     f.Opts.Seed,
		HTTP:     &http.Client{Transport: f.transport()},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		return fmt.Errorf("fixture: router: %w", err)
	}
	rt.RefreshNow(ctx) // the first probe round, so writes find the leader at once
	f.Router = rt
	f.background.Add(1)
	go func() {
		defer f.background.Done()
		rt.Run(ctx)
	}()
	f.front = httptest.NewServer(rt)
	f.RouterURL = f.front.URL
	return nil
}

// transport returns a fresh clone of the default transport — the same
// settings a nil client gets — that Close can drain.
func (f *Fixture) transport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	f.transports = append(f.transports, t)
	return t
}

// Drained reports whether the follower has applied everything the
// leader has stored.
func (f *Fixture) Drained() bool {
	return f.Follower != nil && f.Follower.Store.Len() == f.Primary().Store.Len()
}

// Close stops every goroutine and server the fixture started and waits
// for them. It is safe on a partially built fixture.
func (f *Fixture) Close() error {
	f.cancel()
	if f.Tail != nil {
		f.Tail.Stop()
	}
	f.background.Wait()
	if f.front != nil {
		f.front.Close()
	}
	if f.Follower != nil {
		f.Follower.srv.Close()
	}
	for _, n := range f.Nodes {
		n.srv.Close()
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
	if f.Durable != nil {
		if err := f.Durable.Close(); err != nil {
			return fmt.Errorf("fixture: close durable store: %w", err)
		}
	}
	return nil
}
