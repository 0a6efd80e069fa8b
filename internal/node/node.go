// Package node assembles one MCBound node — the unit the paper deploys
// (§III-E: a backend, a deploy script that trains once, a cronjob that
// retrains) — from one Config. cmd/mcbound-server binds its flags into
// a Config and serves Open's handler; the election suite and the replay
// e2e gate build their nodes through the same Open, so the order of the
// steps (DESIGN.md §8.10) is written once.
package node

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/core"
	"mcbound/internal/election"
	"mcbound/internal/fetch"
	"mcbound/internal/httpapi"
	"mcbound/internal/linalg"
	"mcbound/internal/ml/knn"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/stats"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
	"mcbound/internal/wal"
)

// Config is one node's whole configuration: a field per mcbound-server
// flag (the flag's help text documents it), then the seams a test or a
// simulation substitutes.
type Config struct {
	Trace, Model, Index, ModelDir  string
	Pprof                          bool
	Seed                           uint64
	Alpha, Beta, Port, EncodeCache int
	MaxBody                        int64
	RetrainEvery, DrainTimeout     time.Duration

	// Overload protection.
	MaxConcurrency, QueueDepth int

	// Replication client retries.
	FetchAttempts int
	FetchBackoff  time.Duration

	// Durable job store (write-ahead log + snapshots).
	DataDir, Fsync string
	SegmentBytes   int64
	SnapshotEvery  int

	// Replication.
	Follow         string
	FollowPoll     time.Duration
	PromoteOnStart bool
	RetrainJitter  float64

	// Leader election (self-driving failover).
	NodeID, Peers                             string
	LeaseTTL, HeartbeatEvery, ElectionTimeout time.Duration
	MaxMissed                                 int

	// FS backs the durable store; nil is wal.OS.
	FS wal.FS
	// Transport carries the elector's lease reads and acks; nil is
	// election's HTTP transport over HTTP.
	Transport election.Transport
	// HTTP is the client the node reaches its peers through (WAL shipping
	// and the lease surface); nil is a plain &http.Client{}. It carries
	// no deadline: each call's is set on Clock. Over a *Transport it
	// keeps a cluster in one process.
	HTTP *http.Client
	// Clock times every loop, cooldown, retry backoff and deadline of the
	// node; nil is the wall clock.
	Clock clock.Clock
	// Logger receives the node's log records, its replication's and its
	// elector's, each with the node's -node-id when it has one; nil is
	// slog.Default(). The API's access lines reach it at level Info.
	Logger *slog.Logger
}

// finalDrainBudget bounds the sync rounds an election winner spends
// pulling the old leader's durable prefix before it promotes.
const finalDrainBudget = 10 * time.Second

// parsed is what Validate checked, in the form Open uses.
type parsed struct {
	policy  wal.Policy
	members cluster.Membership
}

// Validate reports the first flag combination the node cannot run
// under, naming the flags.
func (c Config) Validate() error {
	_, err := c.parse()
	return err
}

func (c Config) parse() (p parsed, err error) {
	following := c.Follow != ""
	switch {
	case following && c.PromoteOnStart:
		return p, fmt.Errorf("-follow and -promote-on-start are mutually exclusive: promote a running follower via POST /v1/promote, or restart without -follow")
	case c.PromoteOnStart && c.DataDir == "":
		return p, fmt.Errorf("-promote-on-start requires -data-dir (the inherited durable state to lead over)")
	case following && c.Trace != "":
		// The seed would sit on the replica beside the leader's stream:
		// jobs its leader never had.
		return p, fmt.Errorf("-follow excludes -trace: a follower's jobs come from its leader's log only")
	case !following && c.Trace == "":
		return p, fmt.Errorf("either -trace or -follow is required")
	}
	if p.policy, err = wal.ParsePolicy(c.Fsync); err != nil {
		return p, fmt.Errorf("bad -fsync: %w", err)
	}
	switch knn.IndexMode(c.Index) {
	case "", knn.IndexAuto, knn.IndexOn, knn.IndexOff:
	default:
		return p, fmt.Errorf("bad -index %q (want auto, on or off)", c.Index)
	}
	if c.Peers == "" && c.NodeID == "" {
		return p, nil
	}
	if c.Peers == "" || c.NodeID == "" {
		return p, fmt.Errorf("-node-id and -peers go together (got node-id=%q peers=%q)", c.NodeID, c.Peers)
	}
	if p.members, err = cluster.ParsePeers(c.NodeID, c.Peers); err != nil {
		return p, fmt.Errorf("bad -peers: %w", err)
	}
	switch {
	case c.DataDir != "":
	case following:
		// An election win would promote this node to a leader with no
		// log: nothing for the other follower to ship, no lease on disk.
		return p, fmt.Errorf("-peers with -follow requires -data-dir: an elected follower promotes onto it")
	default:
		return p, fmt.Errorf("-peers requires a replication role: lead with -data-dir or follow with -follow")
	}
	return p, nil
}

// Node is one assembled MCBound node: Handler serves its API, Run
// drives its background loops, Close stops them and closes its log.
type Node struct {
	// Store is the jobs data storage (the same one after a promotion);
	// Repl the replication role, nil without -data-dir or -follow;
	// Elector nil without -peers.
	Store   *store.Store
	Repl    *repl.Node
	Elector *election.Elector

	log   *slog.Logger
	clock clock.Clock
	fw    *core.Framework
	adm   *admission.Controller
	api   *httpapi.Server
	// loops run under Run; stops end them, in the same order.
	loops []func(context.Context)
	stops []func()
}

// Open assembles a node from c: recover the store, take the replication
// role, arm the elector, build the framework over the store,
// restore a persisted model, run a follower's bootstrap sync, train
// once, then build admission and the API. Nothing runs in the
// background until Run; a node Open returned must be Closed.
func Open(ctx context.Context, c Config) (*Node, error) {
	p, err := c.parse()
	if err != nil {
		return nil, err
	}
	n := &Node{log: c.Logger, clock: c.Clock}
	if n.log == nil {
		n.log = slog.Default()
	}
	if c.NodeID != "" {
		n.log = n.log.With("node", c.NodeID)
	}
	if n.clock == nil {
		n.clock = clock.Wall{}
	}
	if err := n.assemble(ctx, c, p); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) assemble(ctx context.Context, c Config, p parsed) (err error) {
	log := n.log
	fsys := c.FS
	if fsys == nil {
		fsys = wal.OS
	}
	following := c.Follow != ""

	// Without AVX2 the KNN path runs several times slower; say so once.
	log.Info("linalg distance kernels", "kernel", linalg.Kernel())

	// A follower needs no seed: its store fills from the leader's stream.
	st := store.New()
	if c.Trace != "" {
		log.Info("loading trace", "path", c.Trace)
		if st, err = store.LoadFile(c.Trace); err != nil {
			return err
		}
	}
	log.Info("jobs data storage ready", "jobs", st.Len())

	reg := telemetry.NewRegistry()

	// Durable job store. On the first boot the seed becomes the initial
	// snapshot; later the durable state wins and the seed is ignored. A
	// follower does not open the log for writing — its -data-dir is
	// warm-start state and the promotion target.
	var durable *store.Durable
	durOpts := store.DurableOptions{
		SegmentBytes: c.SegmentBytes, Policy: p.policy, FS: c.FS,
		SnapshotEvery: c.SnapshotEvery, BumpEpoch: c.PromoteOnStart,
	}
	if c.DataDir != "" {
		durOpts.AppendObserver = reg.Histogram("mcbound_wal_append_seconds",
			"WAL append latency per acknowledged batch (reserve to durability point).",
			telemetry.ExponentialBuckets(1e-5, 4, 10), nil).Observe
	}
	switch {
	case c.DataDir == "":
	case following:
		// Warm start, read-only. The follower re-syncs from the leader
		// either way and apply is last-writer-wins in log order, so a stale
		// warm store only saves bootstrap bytes, never wins.
		if _, statErr := fsys.Stat(c.DataDir); statErr == nil {
			if warm, rec, lerr := store.LoadReadOnly(c.DataDir, fsys); lerr != nil {
				log.Warn("warm start failed, bootstrapping cold", "dir", c.DataDir, "err", lerr)
			} else {
				st = warm
				log.Info("warm start", "dir", c.DataDir, "jobs", st.Len(), "recovery", rec.Outcome())
			}
		}
	default:
		if durable, err = store.OpenDurable(c.DataDir, st, durOpts); err != nil {
			return fmt.Errorf("open durable store %s: %w", c.DataDir, err)
		}
		rec := durable.Recovery()
		log.Info("durable store opened", "dir", c.DataDir, "recovery", rec.Outcome(),
			"snapshot_records", rec.SnapshotRecords, "log_records", rec.SegmentRecords,
			"fsync", p.policy.String(), "epoch", durable.WAL().Epoch())
		if rec.Failure != nil {
			log.Warn("serving the clean prefix only — a corrupt WAL segment was quarantined", "err", rec.Failure)
		}
		st = durable.Store()
		log.Info("durable jobs data storage ready", "jobs", st.Len())
	}
	n.Store = st

	// Replication role: a leader with a log ships it; a follower tails it
	// and carries the plan to take over on promotion.
	var follower *repl.Follower
	var replClient *repl.Client
	if following {
		// The client moves off -follow only when the elector names a new
		// leader: a 421's Location is never followed.
		replClient = repl.NewClient(repl.ClientConfig{
			BaseURL: c.Follow,
			HTTP:    c.HTTP,
			Retry:   resilience.Policy{MaxAttempts: c.FetchAttempts, BaseDelay: c.FetchBackoff},
			Breaker: resilience.BreakerConfig{Clock: n.clock},
			Seed:    c.Seed,
			// Total retry amplification stays a fraction of the success rate.
			Budget: resilience.NewBudget(resilience.BudgetConfig{}),
		})
		follower, err = repl.NewFollower(repl.FollowerConfig{
			Client: replClient, Apply: st.ApplyRecord, Clock: n.clock, Logger: log,
			Poll: c.FollowPoll,
			Seed: c.Seed, // poll jitter: a fleet must not poll in lockstep
		})
		if err != nil {
			return err
		}
		n.Repl = repl.NewFollowerNode(follower, c.Follow, repl.PromotePlan{Dir: c.DataDir, Store: st, Options: durOpts})
	} else if durable != nil {
		n.Repl = repl.NewLeader(durable)
		log.Info("replication leader: serving WAL at /v1/wal/segments", "epoch", durable.WAL().Epoch())
	}

	if p.members.Size() > 0 {
		ecfg := election.Config{
			Members: p.members, Node: n.Repl, Seed: c.Seed, Clock: n.clock, Logger: log,
			LeaseTTL: c.LeaseTTL, HeartbeatEvery: c.HeartbeatEvery, MaxMissed: c.MaxMissed, ElectionTimeout: c.ElectionTimeout,
			Transport: c.Transport,
		}
		if ecfg.Transport == nil {
			ecfg.Transport = election.NewHTTPTransport(c.HTTP, n.clock, c.Seed)
		}
		if follower != nil {
			ecfg.OnLeaderChange = func(u string) {
				n.Repl.SetLeaderURL(u)
				replClient.Redirect(u)
			}
			// No acknowledged write may stay behind a fenced epoch.
			ecfg.BeforePromote = election.FinalDrain(follower, n.clock, finalDrainBudget)
		}
		if n.Elector, err = election.New(ecfg); err != nil {
			return fmt.Errorf("election: %w", err)
		}
		log.Info("elector armed", "members", p.members.Size(), "quorum", p.members.Quorum(),
			"lease", c.LeaseTTL, "heartbeat", c.HeartbeatEvery)
	}

	cfg := core.DefaultConfig()
	cfg.Model, cfg.Alpha, cfg.Beta, cfg.ModelDir = core.ModelKind(c.Model), c.Alpha, c.Beta, c.ModelDir
	cfg.KNN.Index.Mode = knn.IndexMode(c.Index)
	// The store is in process: a query answers, misses or sees its
	// context end, so there is nothing to retry and no breaker to trip.
	if n.fw, err = core.New(cfg, fetch.StoreBackend{Store: st}); err != nil {
		return err
	}
	n.fw.Encoder().SetCacheCapacity(c.EncodeCache)

	// Restore a persisted model before training: if the first train
	// fails the node still answers inference (stale beats dead).
	if c.ModelDir != "" {
		if lrep, err := n.fw.LoadLatest(); err != nil {
			log.Info("no model restored", "dir", c.ModelDir, "err", err)
		} else {
			if len(lrep.Quarantined) > 0 {
				log.Warn("corrupted model versions quarantined", "dir", c.ModelDir, "files", lrep.Quarantined)
			}
			log.Info("restored model", "version", lrep.Version, "dir", c.ModelDir)
		}
	}

	// One sync round before the first train, so the model fits on the
	// leader's data rather than an empty store. A failed round is not
	// fatal: the loop keeps retrying and /healthz reports disconnected.
	if follower != nil {
		syncCtx, cancel := clock.WithTimeout(ctx, n.clock, 30*time.Second)
		if serr := follower.SyncNow(syncCtx); serr != nil {
			log.Warn("initial replication sync failed, serving degraded", "leader", c.Follow, "err", serr)
		} else {
			fs := follower.Status()
			log.Info("replication bootstrap complete", "jobs", st.Len(), "epoch", fs.Epoch, "applied_seq", fs.AppliedSeq)
		}
		cancel()
		n.loops = append(n.loops, follower.Run)
		n.stops = append(n.stops, follower.Stop)
	}
	if n.Elector != nil {
		n.loops = append(n.loops, n.Elector.Run)
		n.stops = append(n.stops, n.Elector.Stop)
	}

	// Initial Training Workflow (the deploy script of §III-E). On failure
	// the node comes up degraded — the restored model if one loaded, 503
	// on /healthz otherwise — and the cron keeps trying.
	rep, trainErr := n.fw.Train(ctx, n.Store.TrainInstant(n.clock.Now().UTC()))
	if trainErr != nil {
		log.Warn("initial training failed, serving degraded", "err", trainErr)
	} else {
		log.Info("initial model trained", trainAttrs(rep)...)
	}

	// Admission gates every route and the cron retrain: a submission
	// storm degrades into typed 503 rejections.
	n.adm = admission.NewController(admission.Config{
		MaxConcurrency: c.MaxConcurrency, QueueDepth: c.QueueDepth, Clock: n.clock,
	})

	n.api = httpapi.New(n.fw, st, slog.NewLogLogger(n.log.Handler(), slog.LevelInfo), httpapi.Options{
		MaxBodyBytes: c.MaxBody, EnablePprof: c.Pprof, Clock: n.clock,
		Registry: reg, Admission: n.adm,
		Durable: durable, Repl: n.Repl, Elector: n.Elector,
	})
	n.api.ObserveTrain(rep, trainErr)

	// The retrain cron (§III-E), jittered: a fleet started together on one
	// -retrain-every would otherwise train in lockstep.
	if c.RetrainEvery > 0 {
		next := retrainIntervals(c)
		cron := clock.NewLoop(n.clock, next, n.retrain)
		n.loops = append(n.loops, func(ctx context.Context) { cron.Run(ctx, next()) })
		n.stops = append(n.stops, func() { cron.Stop(); log.Info("retraining ticker stopped") })
	}
	return nil
}

// retrainIntervals draws the cron's intervals: -retrain-every spread
// over ± -retrain-jitter, deterministic per -seed.
func retrainIntervals(c Config) func() time.Duration {
	rng := stats.NewRNG(c.Seed)
	return func() time.Duration { return clock.Jitter(c.RetrainEvery, c.RetrainJitter, rng.Float64()) }
}

// retrain is one cron trigger: the Training Workflow on the newest
// completed data, admitted at background priority so it holds at most a
// quarter of the concurrency budget inference runs on.
func (n *Node) retrain(ctx context.Context) {
	tk, err := n.adm.Admit(ctx, admission.Background, "")
	if err != nil {
		n.log.Warn("cron retraining not admitted", "err", err)
		return
	}
	rep, err := n.fw.Train(ctx, n.Store.TrainInstant(n.clock.Now().UTC()))
	tk.Release()
	n.api.ObserveTrain(rep, err)
	if err != nil {
		n.log.Warn("cron retraining failed", "err", err)
		return
	}
	n.log.Info("cron retraining", trainAttrs(rep)...)
}

// trainAttrs are a Training Workflow's log attributes: its window, what
// it fitted and the model version it published.
func trainAttrs(rep *core.TrainReport) []any {
	return []any{
		"window_start", rep.WindowStart.Format("2006-01-02"), "window_end", rep.WindowEnd.Format("2006-01-02"),
		"labeled_jobs", rep.LabeledJobs, "fitted_jobs", rep.FittedJobs,
		"train_seconds", rep.TrainDuration.Seconds(), "version", rep.ModelVersion,
	}
}

// Handler is the node's HTTP API.
func (n *Node) Handler() http.Handler { return n.api }

// Run drives the node's background loops — the follower's WAL poll, the
// elector, the retrain cron — until ctx is done or Close is called, and
// returns once they have all exited. It may be called once.
func (n *Node) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, loop := range n.loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(ctx)
		}()
	}
	wg.Wait()
}

// Close stops the background loops and waits for them, then closes the
// durable store behind the write path: the one the node booted on, or
// the one a promotion attached since. Safe to call more than once.
func (n *Node) Close() error {
	for _, stop := range n.stops {
		stop()
	}
	if n.Repl != nil {
		if d := n.Repl.Durable(); d != nil {
			return d.Close()
		}
	}
	return nil
}
