// Command mcbound-server deploys the MCBound framework as an HTTP
// backend (artifact A1, the flask equivalent). It loads a jobs data
// storage from a JSONL trace file (`mcbound gen` writes a synthetic
// one), runs an initial Training Workflow, and serves the inference
// API; an optional background ticker re-triggers the Training Workflow (the
// cronjob of §III-E). The server runs with production timeouts, request
// telemetry on GET /metrics, capped request bodies and signal-driven
// graceful shutdown: SIGTERM/SIGINT stop the retraining ticker, drain
// in-flight requests and exit 0.
//
// Usage:
//
//	mcbound-server -trace jobs.jsonl -model rf -alpha 15 -port 8080
//	mcbound-server -trace jobs.jsonl -retrain-every 24h -pprof
//	mcbound-server -trace jobs.jsonl -data-dir /var/lib/mcbound    # leader
//	mcbound-server -follow http://leader:8080 -data-dir /var/lib/mcbound-f -port 8081
//	mcbound-server -promote-on-start -data-dir /var/lib/mcbound-f  # lead over inherited state
//
// With -node-id and -peers the node runs under the lease-based elector:
// the leader heartbeats a quorum-acknowledged lease, followers detect
// its death and elect a successor unassisted (see DESIGN.md §8.8):
//
//	mcbound-server -trace jobs.jsonl -data-dir /var/lib/m1 -node-id n1 \
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
	"syscall"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/encode"
	"mcbound/internal/httpapi"
	"mcbound/internal/node"
	"mcbound/internal/wal"
)

// bindFlags declares the server's flags on fs, each bound straight to
// its node.Config field.
func bindFlags(fs *flag.FlagSet, c *node.Config) {
	fs.StringVar(&c.Trace, "trace", "", "JSONL trace file backing the jobs data storage")
	fs.Uint64Var(&c.Seed, "seed", 7, "seed of the node's jitter: retrain cron, retries, follower poll, election backoff")
	fs.StringVar(&c.Model, "model", "rf", "classification model: rf or knn")
	fs.StringVar(&c.Index, "index", "auto", "KNN IVF index switch: auto (build above the group threshold), on, off")
	fs.IntVar(&c.Alpha, "alpha", 15, "training window in days")
	fs.IntVar(&c.Beta, "beta", 1, "retraining period in days")
	fs.StringVar(&c.ModelDir, "model-dir", "", "directory for versioned model files (empty = no persistence)")
	fs.IntVar(&c.Port, "port", 8080, "listen port")
	fs.Int64Var(&c.MaxBody, "max-body-bytes", httpapi.DefaultMaxBodyBytes, "request body size cap in bytes")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose /debug/pprof/* on the API port")
	fs.DurationVar(&c.RetrainEvery, "retrain-every", 0, "wall-clock retraining period for the cron ticker (0 = disabled)")
	fs.DurationVar(&c.DrainTimeout, "shutdown-timeout", httpapi.DefaultDrainTimeout, "in-flight request drain budget on shutdown")
	fs.IntVar(&c.EncodeCache, "encode-cache", encode.DefaultCacheCapacity, "embedding cache capacity in entries (0 = disabled)")
	fs.IntVar(&c.MaxConcurrency, "max-concurrency", 64, "concurrent requests admitted at once across all priority tiers")
	fs.IntVar(&c.QueueDepth, "queue-depth", 128, "admission wait-queue capacity across all priority tiers")
	fs.IntVar(&c.FetchAttempts, "fetch-attempts", 4, "attempts per replication request to the leader (retries with jittered exponential backoff)")
	fs.DurationVar(&c.FetchBackoff, "fetch-backoff", 50*time.Millisecond, "base backoff between replication request retries")
	fs.StringVar(&c.DataDir, "data-dir", "", "directory for the durable job store (WAL + snapshots); empty = in-memory only. Existing durable state wins over -trace")
	fs.StringVar(&c.Fsync, "fsync", "always", "WAL durability point for POST /v1/jobs: always | never")
	fs.Int64Var(&c.SegmentBytes, "segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation size in bytes")
	fs.IntVar(&c.SnapshotEvery, "snapshot-every", 50000, "snapshot+compact the WAL after this many logged records (0 = never)")
	fs.StringVar(&c.Follow, "follow", "", "leader base URL to replicate from (follower mode: read-only API, writes answer not_leader)")
	fs.DurationVar(&c.FollowPoll, "follow-poll", 250*time.Millisecond, "manifest poll cadence in follower mode")
	fs.BoolVar(&c.PromoteOnStart, "promote-on-start", false, "boot as leader over an inherited -data-dir with a bumped fencing epoch (fences the previous leader)")
	fs.Float64Var(&c.RetrainJitter, "retrain-jitter", clock.DefaultJitter, "fraction of -retrain-every each cron interval is jittered by (seeded; 0 = fixed period)")
	fs.StringVar(&c.NodeID, "node-id", "", "this node's stable ID in the -peers list (enables the lease-based elector)")
	fs.StringVar(&c.Peers, "peers", "", "static cluster membership as id=url,id=url,... (must include -node-id)")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 3*time.Second, "leadership lease TTL: quorum acks older than this fence the write path")
	fs.DurationVar(&c.HeartbeatEvery, "heartbeat-every", 500*time.Millisecond, "follower lease-poll / leader lease-refresh cadence")
	fs.DurationVar(&c.ElectionTimeout, "election-timeout", time.Second, "base election backoff; each candidate draws uniformly from [T, 2T)")
	fs.IntVar(&c.MaxMissed, "max-missed", 3, "consecutive missed heartbeats before a follower suspects the leader")
}

func main() {
	var c node.Config
	bindFlags(flag.CommandLine, &c)
	flag.Parse()
	if err := serve(c); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-server:", err)
		os.Exit(1)
	}
}

// serve opens the node and serves its API until SIGTERM/SIGINT, then
// drains in-flight requests, stops the node's loops and closes its log.
func serve(c node.Config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n, err := node.Open(ctx, c)
	if err != nil {
		return err
	}
	go n.Run(ctx)
	srv := httpapi.NewHTTPServer(fmt.Sprintf(":%d", c.Port), n.Handler())
	log.Printf("serving on %s (model=%s α=%d β=%d, max_body=%dB, pprof=%t)",
		srv.Addr, c.Model, c.Alpha, c.Beta, c.MaxBody, c.Pprof)
	err = httpapi.ListenAndServe(ctx, srv, c.DrainTimeout)
	if cerr := n.Close(); cerr != nil {
		log.Printf("warning: durable store close: %v", cerr)
	}
	if err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}
