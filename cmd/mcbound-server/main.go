// Command mcbound-server deploys the MCBound framework as an HTTP
// backend (artifact A1, the flask equivalent). It loads a jobs data
// storage from a JSONL trace file (or generates a synthetic one), runs
// an initial Training Workflow, and serves the inference API; an
// optional background ticker re-triggers the Training Workflow (the
// cronjob of §III-E). The server runs with production timeouts, request
// telemetry on GET /metrics, capped request bodies and signal-driven
// graceful shutdown: SIGTERM/SIGINT stop the retraining ticker, drain
// in-flight requests and exit 0.
//
// Usage:
//
//	mcbound-server -trace jobs.jsonl -model rf -alpha 15 -port 8080
//	mcbound-server -generate -scale 0.01            # demo without a trace file
//	mcbound-server -generate -retrain-every 24h -pprof
//	mcbound-server -generate -data-dir /var/lib/mcbound            # leader
//	mcbound-server -follow http://leader:8080 -data-dir /var/lib/mcbound-f -port 8081
//	mcbound-server -promote-on-start -data-dir /var/lib/mcbound-f  # lead over inherited state
//
// With -node-id and -peers the node runs under the lease-based elector:
// the leader heartbeats a quorum-acknowledged lease, followers detect
// its death and elect a successor unassisted (see DESIGN.md §8.8):
//
//	mcbound-server -generate -data-dir /var/lib/m1 -node-id n1 \
//	    -peers 'n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080'
//	mcbound-server -follow http://h1:8080 -data-dir /var/lib/m2 -node-id n2 \
//	    -peers 'n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/core"
	"mcbound/internal/election"
	"mcbound/internal/encode"
	"mcbound/internal/experiments"
	"mcbound/internal/fetch"
	"mcbound/internal/fetch/chaos"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml/knn"
	"mcbound/internal/repl"
	"mcbound/internal/replay"
	"mcbound/internal/resilience"
	"mcbound/internal/stats"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
	"mcbound/internal/wal"
	"mcbound/internal/workload"
)

type options struct {
	trace        string
	generate     bool
	scale        float64
	seed         uint64
	model        string
	index        string
	nprobe       int
	alpha, beta  int
	modelDir     string
	port         int
	trainAt      string
	maxBody      int64
	pprof        bool
	retrainEvery time.Duration
	drainTimeout time.Duration
	encodeCache  int

	// Overload protection.
	maxConcurrency  int
	queueDepth      int
	defaultDeadline time.Duration
	rateLimit       float64

	// Resilient fetch layer.
	fetchAttempts    int
	fetchBackoff     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	// Fault injection (testing the degraded paths end to end).
	chaosRate float64
	chaosSeed uint64

	// Durable job store (write-ahead log + snapshots).
	dataDir       string
	fsync         string
	fsyncInterval time.Duration
	segmentBytes  int64
	snapshotEvery int

	// Streaming surface + server-side replay resource.
	streamBatch  int
	sseBuffer    int
	sseHeartbeat time.Duration
	replaySource string

	// Replication.
	follow         string
	followPoll     time.Duration
	maxLag         time.Duration
	promoteOnStart bool
	retrainJitter  float64

	// Leader election (self-driving failover).
	nodeID          string
	peers           string
	leaseTTL        time.Duration
	heartbeatEvery  time.Duration
	electionTimeout time.Duration
	maxMissed       int
}

func main() {
	var o options
	flag.StringVar(&o.trace, "trace", "", "JSONL trace file backing the jobs data storage")
	flag.BoolVar(&o.generate, "generate", false, "generate a synthetic trace instead of loading one")
	flag.Float64Var(&o.scale, "scale", 0.01, "synthetic trace scale (with -generate)")
	flag.Uint64Var(&o.seed, "seed", 7, "synthetic trace seed (with -generate)")
	flag.StringVar(&o.model, "model", "rf", "classification model: rf or knn")
	flag.StringVar(&o.index, "index", "auto", "KNN IVF index switch: auto (build above the group threshold), on, off")
	flag.IntVar(&o.nprobe, "nprobe", 0, "IVF cells scanned per query (0 = index default)")
	flag.IntVar(&o.alpha, "alpha", 15, "training window in days")
	flag.IntVar(&o.beta, "beta", 1, "retraining period in days")
	flag.StringVar(&o.modelDir, "model-dir", "", "directory for versioned model files (empty = no persistence)")
	flag.IntVar(&o.port, "port", 8080, "listen port")
	flag.StringVar(&o.trainAt, "train-at", "", "reference instant (RFC 3339) for the initial training window; default = newest job completion")
	flag.Int64Var(&o.maxBody, "max-body-bytes", httpapi.DefaultMaxBodyBytes, "request body size cap in bytes")
	flag.BoolVar(&o.pprof, "pprof", false, "expose /debug/pprof/* on the API port")
	flag.DurationVar(&o.retrainEvery, "retrain-every", 0, "wall-clock retraining period for the cron ticker (0 = disabled)")
	flag.DurationVar(&o.drainTimeout, "shutdown-timeout", httpapi.DefaultDrainTimeout, "in-flight request drain budget on shutdown")
	flag.IntVar(&o.encodeCache, "encode-cache", encode.DefaultCacheCapacity, "embedding cache capacity in entries (0 = disabled)")
	flag.IntVar(&o.maxConcurrency, "max-concurrency", 64, "hard ceiling on concurrent requests (the adaptive limit stays below it)")
	flag.IntVar(&o.queueDepth, "queue-depth", 128, "admission wait-queue capacity across all priority tiers")
	flag.DurationVar(&o.defaultDeadline, "default-deadline", httpapi.DefaultDeadline, "per-request deadline for interactive routes (X-Request-Timeout overrides, clamped)")
	flag.Float64Var(&o.rateLimit, "rate-limit", 0, "per-client admission rate in requests/second (0 = disabled)")
	flag.IntVar(&o.fetchAttempts, "fetch-attempts", 4, "attempts per storage query (retries with jittered exponential backoff)")
	flag.DurationVar(&o.fetchBackoff, "fetch-backoff", 50*time.Millisecond, "base backoff between storage query retries")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 5, "consecutive storage failures before the circuit breaker opens")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 10*time.Second, "open-breaker cooldown before a half-open probe")
	flag.Float64Var(&o.chaosRate, "chaos-rate", 0, "inject transient storage faults at this rate in [0,1] (testing only)")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 1, "fault-injection schedule seed (with -chaos-rate)")
	flag.StringVar(&o.dataDir, "data-dir", "", "directory for the durable job store (WAL + snapshots); empty = in-memory only. Existing durable state wins over -trace/-generate")
	flag.StringVar(&o.fsync, "fsync", "always", "WAL durability point for POST /v1/jobs: always | interval | never")
	flag.DurationVar(&o.fsyncInterval, "fsync-interval", wal.DefaultFsyncInterval, "background fsync period (with -fsync interval)")
	flag.Int64Var(&o.segmentBytes, "segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation size in bytes")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", 50000, "snapshot+compact the WAL after this many logged records (0 = never)")
	flag.IntVar(&o.streamBatch, "stream-batch", httpapi.DefaultStreamBatch, "NDJSON ingest records grouped per commit/ack frame on POST /v1/jobs/stream")
	flag.IntVar(&o.sseBuffer, "sse-buffer", httpapi.DefaultSSEBuffer, "prediction stream resume-ring and per-subscriber channel capacity")
	flag.DurationVar(&o.sseHeartbeat, "sse-heartbeat", httpapi.DefaultSSEHeartbeat, "idle keep-alive period on GET /v1/predictions/stream")
	flag.StringVar(&o.replaySource, "replay-source", "", "JSONL trace file backing the /v1/replay resource (empty = replay disabled)")
	flag.StringVar(&o.follow, "follow", "", "leader base URL to replicate from (follower mode: read-only API, writes answer not_leader)")
	flag.DurationVar(&o.followPoll, "follow-poll", 250*time.Millisecond, "manifest poll cadence in follower mode")
	flag.DurationVar(&o.maxLag, "max-lag", 15*time.Second, "replication lag before follower /healthz reports lagging")
	flag.BoolVar(&o.promoteOnStart, "promote-on-start", false, "boot as leader over an inherited -data-dir with a bumped fencing epoch (fences the previous leader)")
	flag.Float64Var(&o.retrainJitter, "retrain-jitter", clock.DefaultJitter, "fraction of -retrain-every each cron interval is jittered by (seeded; 0 = fixed period)")
	flag.StringVar(&o.nodeID, "node-id", "", "this node's stable ID in the -peers list (enables the lease-based elector)")
	flag.StringVar(&o.peers, "peers", "", "static cluster membership as id=url,id=url,... (must include -node-id)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 3*time.Second, "leadership lease TTL: quorum acks older than this fence the write path")
	flag.DurationVar(&o.heartbeatEvery, "heartbeat-every", 500*time.Millisecond, "follower lease-poll / leader lease-refresh cadence")
	flag.DurationVar(&o.electionTimeout, "election-timeout", time.Second, "base election backoff; each candidate draws uniformly from [T, 2T)")
	flag.IntVar(&o.maxMissed, "max-missed", 3, "consecutive missed heartbeats before a follower suspects the leader")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-server:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// SIGTERM/SIGINT trigger the graceful-shutdown path below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	following := o.follow != ""
	if following && o.promoteOnStart {
		return fmt.Errorf("-follow and -promote-on-start are mutually exclusive: promote a running follower via POST /v1/promote, or restart without -follow")
	}
	if o.promoteOnStart && o.dataDir == "" {
		return fmt.Errorf("-promote-on-start requires -data-dir (the inherited durable state to lead over)")
	}

	// A node whose CPU lacks AVX2 serves the same answers on the Go
	// reference kernels, several times slower on the KNN path; say so once.
	log.Printf("linalg distance kernels: %s", linalg.Kernel())

	var st *store.Store
	switch {
	case o.generate:
		log.Printf("generating synthetic trace (scale=%g, seed=%d)...", o.scale, o.seed)
		env, err := experiments.NewEnv(workload.EvalConfig(o.scale), o.seed)
		if err != nil {
			return err
		}
		st = env.Store
	case o.trace != "":
		log.Printf("loading trace %s...", o.trace)
		var err error
		st, err = store.LoadFile(o.trace)
		if err != nil {
			return err
		}
	case following:
		// A follower needs no seed: its store fills from the leader's
		// stream. A warm start below may still shortcut the bootstrap.
		st = store.New()
	default:
		return fmt.Errorf("either -trace, -generate or -follow is required")
	}
	log.Printf("jobs data storage ready: %d jobs", st.Len())

	reg := telemetry.NewRegistry()

	// Durable job store: replay snapshot + WAL from -data-dir before
	// serving, then route every insert through the log. On the first
	// boot the trace/synthetic store seeds the initial snapshot; on
	// later boots the durable state is authoritative and the seed is
	// ignored. A follower does not open the log for writing — its
	// -data-dir is only warm-start state and the promotion target.
	var durable *store.Durable
	var durOpts store.DurableOptions
	if o.dataDir != "" {
		policy, err := wal.ParsePolicy(o.fsync)
		if err != nil {
			return fmt.Errorf("bad -fsync: %w", err)
		}
		walHist := reg.Histogram("mcbound_wal_append_seconds",
			"WAL append latency per acknowledged batch (reserve to durability point).",
			telemetry.ExponentialBuckets(1e-5, 4, 10), nil)
		durOpts = store.DurableOptions{
			SegmentBytes:   o.segmentBytes,
			Policy:         policy,
			Interval:       o.fsyncInterval,
			SnapshotEvery:  o.snapshotEvery,
			AppendObserver: walHist.Observe,
			BumpEpoch:      o.promoteOnStart,
		}
		if following {
			// Warm start: replay whatever durable state a previous life
			// of this node left, read-only (no truncation, no rotation,
			// no epoch writes). The follower re-syncs from the leader
			// either way; apply is last-writer-wins in log order, so a
			// stale warm store only saves bootstrap bytes, never wins.
			if _, statErr := os.Stat(o.dataDir); statErr == nil {
				warm, rec, lerr := store.LoadReadOnly(o.dataDir, wal.OS)
				if lerr != nil {
					log.Printf("warning: warm start from %s failed, bootstrapping cold: %v", o.dataDir, lerr)
				} else {
					st = warm
					log.Printf("warm start from %s: %d jobs (recovery %s)", o.dataDir, st.Len(), rec.Outcome())
				}
			}
		} else {
			durable, err = store.OpenDurable(o.dataDir, st, durOpts)
			if err != nil {
				return fmt.Errorf("open durable store %s: %w", o.dataDir, err)
			}
			defer func() {
				if cerr := durable.Close(); cerr != nil {
					log.Printf("warning: durable store close: %v", cerr)
				}
			}()
			rec := durable.Recovery()
			log.Printf("durable store %s: recovery %s (%d snapshot + %d log records, fsync=%s, epoch=%d)",
				o.dataDir, rec.Outcome(), rec.SnapshotRecords, rec.SegmentRecords, policy, durable.WAL().Epoch())
			if rec.Failure != nil {
				log.Printf("warning: serving the clean prefix only — a corrupt WAL segment was quarantined: %v", rec.Failure)
			}
			st = durable.Store()
			log.Printf("durable jobs data storage ready: %d jobs", st.Len())
		}
	}

	// Static membership, parsed up front when configured: the elector
	// needs it, and the replication client uses it as the redirect
	// allowlist — a 421 Location pointing at a non-member is refused.
	var members cluster.Membership
	if o.peers != "" || o.nodeID != "" {
		if o.peers == "" || o.nodeID == "" {
			return fmt.Errorf("-node-id and -peers go together (got node-id=%q peers=%q)", o.nodeID, o.peers)
		}
		var merr error
		members, merr = cluster.ParsePeers(o.nodeID, o.peers)
		if merr != nil {
			return fmt.Errorf("bad -peers: %w", merr)
		}
	}

	// Replication topology. A leader with a durable log serves the WAL-
	// shipping surface (GET /v1/wal/segments...); a follower tails it,
	// applying every CRC-verified frame through the same path as crash
	// recovery, and carries the plan to take over on POST /v1/promote.
	var node *repl.Node
	var follower *repl.Follower
	var replClient *repl.Client
	if following {
		ccfg := repl.ClientConfig{
			BaseURL: o.follow,
			Retry: resilience.Policy{
				MaxAttempts: o.fetchAttempts,
				BaseDelay:   o.fetchBackoff,
			},
			Breaker: resilience.BreakerConfig{
				FailureThreshold: o.breakerThreshold,
				Cooldown:         o.breakerCooldown,
			},
			Seed: o.seed,
			// One process-wide bucket: however many goroutines end up
			// retrying against the leader, their total retry amplification
			// stays a fraction of the success rate.
			Budget: resilience.NewBudget(resilience.BudgetConfig{}),
		}
		if members.Size() > 0 {
			ccfg.Allowed = members.ContainsURL
		}
		replClient = repl.NewClient(ccfg)
		var err error
		follower, err = repl.NewFollower(repl.FollowerConfig{
			Client: replClient,
			Apply: func(payload []byte) error {
				var j job.Job
				if jerr := job.Unmarshal(payload, &j); jerr != nil {
					return jerr
				}
				return st.Insert(&j)
			},
			Poll: o.followPoll,
			// Seeded ±jitter keeps a fleet of followers from polling the
			// leader in lockstep.
			Seed:   o.seed,
			MaxLag: o.maxLag,
			Logf:   log.Printf,
		})
		if err != nil {
			return err
		}
		node = repl.NewFollowerNode(follower, o.follow, repl.PromotePlan{
			Dir:     o.dataDir,
			Store:   st,
			Options: durOpts,
		})
	} else if durable != nil {
		node = repl.NewLeader(durable)
		log.Printf("replication leader: epoch %d, serving WAL at /v1/wal/segments", durable.WAL().Epoch())
	}

	// Lease-based elector: with -node-id/-peers the cluster drives its
	// own failover — the leader's writes are fenced the moment quorum
	// acks go stale, and followers elect a successor unassisted.
	var elector *election.Elector
	if members.Size() > 0 {
		if node == nil {
			return fmt.Errorf("-peers requires a replication role: lead with -data-dir or follow with -follow")
		}
		ecfg := election.Config{
			Members:         members,
			Node:            node,
			LeaseTTL:        o.leaseTTL,
			HeartbeatEvery:  o.heartbeatEvery,
			MaxMissed:       o.maxMissed,
			ElectionTimeout: o.electionTimeout,
			Seed:            o.seed,
			LeaseDir:        o.dataDir,
			Logf:            log.Printf,
		}
		if follower != nil {
			client := replClient
			ecfg.OnLeaderChange = func(u string) {
				node.SetLeaderURL(u)
				client.Redirect(u)
			}
			// Before self-promoting, drain whatever durable prefix the old
			// leader can still serve, so no acknowledged write is left
			// behind a fenced epoch.
			ecfg.BeforePromote = election.FinalDrain(follower, 10*time.Second)
		}
		el, elErr := election.New(ecfg)
		if elErr != nil {
			return fmt.Errorf("election: %w", elErr)
		}
		elector = el
		go elector.Run(ctx)
		defer elector.Stop()
		log.Printf("elector armed: node %s in %d-member cluster (quorum %d, lease %v, heartbeat %v)",
			o.nodeID, members.Size(), members.Quorum(), o.leaseTTL, o.heartbeatEvery)
	}

	// Fetch chain: store → optional fault injection → retries + breaker.
	// The framework and every workflow query the storage through it.
	var backend fetch.Backend = fetch.StoreBackend{Store: st}
	if o.chaosRate > 0 {
		cb := chaos.New(backend, o.chaosSeed)
		cb.SetAll(chaos.Profile{TransientRate: o.chaosRate})
		backend = cb
		log.Printf("fault injection armed: %.0f%% transient rate, seed %d", o.chaosRate*100, o.chaosSeed)
	}
	rcfg := fetch.DefaultResilienceConfig()
	rcfg.Retry.MaxAttempts = o.fetchAttempts
	rcfg.Retry.BaseDelay = o.fetchBackoff
	rcfg.Breaker.FailureThreshold = o.breakerThreshold
	rcfg.Breaker.Cooldown = o.breakerCooldown
	resilient := fetch.NewResilientBackend(backend, rcfg)
	resilient.Instrument(reg)

	cfg := core.DefaultConfig()
	cfg.Model = core.ModelKind(o.model)
	cfg.Alpha, cfg.Beta = o.alpha, o.beta
	cfg.ModelDir = o.modelDir
	cfg.KNN.Index.Mode = knn.IndexMode(o.index)
	cfg.KNN.Index.NProbe = o.nprobe
	fw, err := core.New(cfg, resilient)
	if err != nil {
		return err
	}
	if err := fw.SetIndexOptions(o.index, o.nprobe); err != nil {
		return fmt.Errorf("bad -index/-nprobe: %w", err)
	}
	fw.Encoder().SetCacheCapacity(o.encodeCache)

	// Crash recovery: restore the newest valid persisted model before
	// training, so the server can answer inference even if the initial
	// Training Workflow fails (stale beats dead).
	if o.modelDir != "" {
		switch lrep, err := fw.LoadLatest(); {
		case err != nil:
			log.Printf("no model restored from %s: %v", o.modelDir, err)
		default:
			if len(lrep.Quarantined) > 0 {
				log.Printf("warning: %d corrupted model version(s) quarantined in %s: %v",
					len(lrep.Quarantined), o.modelDir, lrep.Quarantined)
			}
			log.Printf("restored model version %d from %s", lrep.Version, o.modelDir)
		}
	}

	// Follower bootstrap: one synchronous sync round before the initial
	// training, so the first model fits on the leader's data rather than
	// an empty store. A failed round is not fatal — the background loop
	// keeps retrying and /healthz reports the follower disconnected.
	if follower != nil {
		syncCtx, syncCancel := context.WithTimeout(ctx, 30*time.Second)
		if serr := follower.SyncNow(syncCtx); serr != nil {
			log.Printf("warning: initial replication sync failed (leader %s), serving degraded: %v", o.follow, serr)
		} else {
			fs := follower.Status()
			log.Printf("replication bootstrap complete: %d jobs applied, epoch %d, applied_seq %d",
				st.Len(), fs.Epoch, fs.AppliedSeq)
		}
		syncCancel()
		go follower.Run(ctx)
		defer follower.Stop()
	}

	// Initial Training Workflow (the deploy script of §III-E). A failure
	// is no longer fatal: the server comes up degraded — serving the
	// restored model if one loaded, 503 on /healthz otherwise — and the
	// retraining ticker keeps trying.
	now := time.Now().UTC()
	if o.trainAt != "" {
		if now, err = time.Parse(time.RFC3339, o.trainAt); err != nil {
			return fmt.Errorf("bad -train-at: %w", err)
		}
	} else if newest := newestEnd(st); !newest.IsZero() {
		now = newest
	}
	rep, trainErr := fw.Train(ctx, now)
	if trainErr != nil {
		log.Printf("warning: initial training failed, serving degraded: %v", trainErr)
	} else {
		log.Printf("initial model trained: window [%s, %s), %d labeled jobs, %.3fs, version %d",
			rep.WindowStart.Format("2006-01-02"), rep.WindowEnd.Format("2006-01-02"),
			rep.LabeledJobs, rep.TrainDuration.Seconds(), rep.ModelVersion)
	}

	// Overload protection: the admission controller gates every route
	// (and the cron retrain below) so a submission storm degrades into
	// typed 429/503 rejections instead of unbounded queueing.
	adm := admission.NewController(admission.Config{
		MaxConcurrency: o.maxConcurrency,
		QueueDepth:     o.queueDepth,
		RateLimit:      o.rateLimit,
	})

	// Server-side replay resource: a historical trace the operator can
	// drive through this server's own HTTP path at ×N speed via
	// POST /v1/replay. Ground truth for the per-window F1 comes from the
	// framework's roofline characterizer — the same oracle the offline
	// simulator scores against.
	var replayMgr *replay.Manager
	if o.replaySource != "" {
		src, err := store.LoadFile(o.replaySource)
		if err != nil {
			return fmt.Errorf("load -replay-source %s: %w", o.replaySource, err)
		}
		char := fw.Characterizer()
		replayMgr = replay.NewManager(replay.Options{
			Source: src,
			Truth: func(j *job.Job) (job.Label, bool) {
				pt, cerr := char.Characterize(j)
				if cerr != nil {
					return job.Unknown, false
				}
				return pt.Label, true
			},
			Log: log.Default(),
		})
		log.Printf("replay resource armed: %d trace records from %s", src.Len(), o.replaySource)
	}

	api := httpapi.New(fw, st, log.Default(), httpapi.Options{
		MaxBodyBytes:    o.maxBody,
		EnablePprof:     o.pprof,
		Registry:        reg,
		Breaker:         resilient.Breaker(),
		Admission:       adm,
		DefaultDeadline: o.defaultDeadline,
		Durable:         durable,
		Repl:            node,
		Elector:         elector,
		Replay:          replayMgr,
		StreamBatchSize: o.streamBatch,
		SSEBufferSize:   o.sseBuffer,
		SSEHeartbeat:    o.sseHeartbeat,
	})
	if replayMgr != nil {
		replayMgr.SetTarget(api)
	}
	api.ObserveTrain(rep, trainErr)

	// Cron-equivalent retraining ticker: retrain on the newest completed
	// data (a live store advances as POST /v1/jobs delivers records, or
	// as the replication stream applies the leader's). Each interval is
	// drawn from the seeded jittered schedule: a fleet of replicas
	// started together with one -retrain-every would otherwise fire its
	// Training Workflows in lockstep — every node burning background
	// concurrency at the same instant, a follower fleet hammering the
	// leader's fetch path together. Stopped by the same signal context
	// that drains the server.
	var wg sync.WaitGroup
	if o.retrainEvery > 0 {
		next := retrainIntervals(o)
		retrain := func(ctx context.Context) {
			at := newestEnd(st)
			if at.IsZero() {
				at = time.Now().UTC()
			}
			// Retraining competes with inference for the same cores:
			// admit it at background priority so it holds at most a
			// quarter of the concurrency budget.
			tk, admErr := adm.Admit(ctx, admission.Background, "cron")
			if admErr != nil {
				log.Printf("cron retraining not admitted: %v", admErr)
				return
			}
			rep, err := fw.Train(ctx, at)
			tk.Release()
			api.ObserveTrain(rep, err)
			if err != nil {
				log.Printf("cron retraining failed: %v", err)
				return
			}
			log.Printf("cron retraining: window [%s, %s), %d labeled jobs, version %d",
				rep.WindowStart.Format("2006-01-02"), rep.WindowEnd.Format("2006-01-02"),
				rep.LabeledJobs, rep.ModelVersion)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock.NewLoop(clock.Wall{}, next, retrain).Run(ctx, next())
			log.Printf("retraining ticker stopped")
		}()
	}

	srv := httpapi.NewHTTPServer(fmt.Sprintf(":%d", o.port), api)
	log.Printf("serving on %s (model=%s α=%d β=%d, max_body=%dB, pprof=%t)",
		srv.Addr, o.model, o.alpha, o.beta, o.maxBody, o.pprof)
	err = httpapi.ListenAndServe(ctx, srv, o.drainTimeout)
	wg.Wait()
	// A promotion during this run attached a durable log the boot-time
	// defer does not know about; flush it on the way out.
	if node != nil {
		if d := node.Durable(); d != nil && d != durable {
			if cerr := d.Close(); cerr != nil {
				log.Printf("warning: promoted durable store close: %v", cerr)
			}
		}
	}
	if err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}

// retrainIntervals draws the cron's intervals: -retrain-every spread
// over ± -retrain-jitter, deterministic per -seed.
func retrainIntervals(o options) func() time.Duration {
	rng := stats.NewRNG(o.seed)
	return func() time.Duration { return clock.Jitter(o.retrainEvery, o.retrainJitter, rng.Float64()) }
}

func newestEnd(st *store.Store) time.Time {
	var newest time.Time
	for _, j := range st.All() {
		if j.EndTime.After(newest) {
			newest = j.EndTime
		}
	}
	return newest
}
