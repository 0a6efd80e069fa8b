package main

import (
	"fmt"
	"path/filepath"
	"sort"

	"mcbound/benchmark/stats"
)

// perLayer lists every per-layer metric: the layer is the package name
// before the dot. The comment on each names the call timed and the
// end-to-end metric @ workload the number should move. A traced run of any workload
// reports all of them: the lab times every layer on the run's fixture,
// and the counts, budgets and tails come from the workload's own
// passes — a budget share or count is 0 where the layer is not on the
// workload's path.
var perLayer = []metricSpec{
	{Name: "workload.generate_jobs_per_s", Unit: "1/s", Better: "higher"}, // Generator.Generate → setup_s @ all

	{Name: "store.insert_ns_per_job", Unit: "ns", Better: "lower"},   // Store.Insert in 100-job batches → secondary_* @ ingest_mixed_s30, setup_s
	{Name: "store.get_ns", Unit: "ns", Better: "lower"},              // Store.Get → classify_p50_us @ qsub_rf_routed_s30, ingest_mixed_s30
	{Name: "store.get_under_insert_ns", Unit: "ns", Better: "lower"}, // Store.Get while another goroutine inserts → classify_p50_us @ ingest_mixed_s30
	{Name: "store.executed_between_ms", Unit: "ms", Better: "lower"}, // Store.ExecutedBetween over the training window → secondary_p50_ms @ retrain_live_s10
	{Name: "fetch.fetch_job_ns", Unit: "ns", Better: "lower"},        // Fetcher.FetchJob → classify_p50_us @ qsub_rf_routed_s30

	{Name: "wal.append_batch100_always_us", Unit: "us", Better: "lower"}, // WAL.AppendBatch of 100 records, fsync always → secondary_p50_ms @ ingest_mixed_s30
	{Name: "wal.append_batch100_never_us", Unit: "us", Better: "lower"},  // WAL.AppendBatch of 100 records, fsync never
	{Name: "wal.fsync_share", Unit: "ratio", Better: "lower"},            // 1 − never/always: the part of an append that is the fsync
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},     // WAL.Stats appends ÷ fsyncs over the passes: useful records per group commit → secondary_p50_ms @ ingest_mixed_s30
	{Name: "durable.insert_batch100_us", Unit: "us", Better: "lower"},    // Durable.Insert of 100 jobs → secondary_p50_ms @ ingest_mixed_s30

	{Name: "repl.follower_lag_p50_ms", Unit: "ms", Better: "lower"}, // 8 single acked inserts, each timed to visibility on the follower (250 ms poll); moves no gated metric
	{Name: "repl.follower_lag_max_ms", Unit: "ms", Better: "lower"}, // same, the slowest
	{Name: "repl.drain_ms", Unit: "ms", Better: "lower"},            // last ack → follower Len equal to leader's

	{Name: "roofline.label_ns_per_job", Unit: "ns", Better: "lower"}, // Characterizer.GenerateLabels → secondary_p50_ms @ retrain_live_s10, setup_s

	{Name: "encode.embed_cold_ns", Unit: "ns", Better: "lower"},                 // EncodeJob, cache capacity 0 → secondary_* @ window_rf_s30, qsub_*; setup_s
	{Name: "encode.embed_hot_ns", Unit: "ns", Better: "lower"},                  // EncodeJob, cached → classify_p50_us @ qsub_rf_routed_s30
	{Name: "encode.bulk_cold_jobs_per_s", Unit: "1/s", Better: "higher"},        // Encoder.Encode of 5 000 jobs, cache off → secondary_p50_ms @ window_rf_s30
	{Name: "encode.cold_allocs", Unit: "count", Better: "lower", Exact: true},   // allocations of one cold EncodeJob
	{Name: "encode.cache_hit_ratio", Unit: "ratio", Better: "higher"},           // CacheStats delta over the classify phase
	{Name: "encode.cache_hit_ratio_secondary", Unit: "ratio", Better: "higher"}, // CacheStats delta over the secondary phase (0 where every name is new)

	{Name: "linalg.sqdist_int8_ns", Unit: "ns", Better: "lower"},                       // SqDistInt8, 384-dim → classify_p50_us @ qsub_knn_s30 only
	{Name: "linalg.sqeuclidean_ns", Unit: "ns", Better: "lower"},                       // SqEuclidean, 384-dim → classify_p50_us @ qsub_knn_s30 only
	{Name: "linalg.int8_bytes_per_query", Unit: "bytes", Better: "lower", Exact: true}, // computed: int8 rows scanned per query × 384

	{Name: "ivf.search_p50_us", Unit: "us", Better: "lower"},                      // VectorIndex.Search on held-out vectors → classify_* @ qsub_knn_s30
	{Name: "ivf.search_p99_us", Unit: "us", Better: "lower"},                      // same, p99
	{Name: "ivf.probes_per_query", Unit: "count", Better: "lower", Exact: true},   // TotalProbes delta ÷ queries
	{Name: "ivf.reranked_per_query", Unit: "count", Better: "lower", Exact: true}, // TotalReranked delta ÷ queries
	{Name: "ivf.recall_at_k", Unit: "ratio", Better: "higher", Exact: true},       // recall@5 of 512 held-out vectors against the exact scan; the run fails below 0.90 → f1_macro
	{Name: "ivf.build_s", Unit: "s", Better: "lower"},                             // ivf.Build on the served model's Matrix() → setup_s @ qsub_knn_s30, secondary_p50_ms @ retrain_live_s10
	{Name: "ivf.clusters", Unit: "count", Better: "higher", Exact: true},          // coarse-quantizer cells
	{Name: "ivf.nprobe", Unit: "count", Better: "lower", Exact: true},             // cells scanned per query, calibrated at build

	{Name: "knn.predict_p50_us", Unit: "us", Better: "lower"},                 // Classifier.Predict of one vector on the served KNN → classify_* @ qsub_knn_s30
	{Name: "knn.train_s", Unit: "s", Better: "lower"},                         // TrainReport.TrainDuration of the KNN fit (dedupe + index build)
	{Name: "knn.groups_per_row", Unit: "ratio", Better: "lower", Exact: true}, // unique vectors ÷ training rows: the dedupe ratio

	{Name: "rf.predict_single_ns", Unit: "ns", Better: "lower"},  // Classifier.Predict of one vector on the served RF → classify_p50_us @ qsub_rf_routed_s30
	{Name: "rf.predict_batch1k_ms", Unit: "ms", Better: "lower"}, // Classifier.Predict of 1 000 vectors → classify_*/secondary_* @ window_rf_s30
	{Name: "rf.train_s", Unit: "s", Better: "lower"},             // TrainReport.TrainDuration of the RF fit → secondary_p50_ms @ retrain_live_s10, setup_s

	{Name: "persist.save_knn_ms", Unit: "ms", Better: "lower"}, // Registry.Save of the KNN model → secondary_p50_ms @ retrain_live_s10
	{Name: "persist.save_rf_ms", Unit: "ms", Better: "lower"},  // Registry.Save of the RF model → same

	{Name: "core.classify_single_knn_us", Unit: "us", Better: "lower"},     // Framework.ClassifyJobs of one job, KNN → classify_* @ qsub_knn_s30
	{Name: "core.classify_single_rf_us", Unit: "us", Better: "lower"},      // same, RF → classify_* @ qsub_rf_routed_s30
	{Name: "core.classify_single_allocs", Unit: "count", Better: "lower"},  // allocations of one ClassifyJobs on the workload's model
	{Name: "core.classify_batch1k_dup_ms", Unit: "ms", Better: "lower"},    // ClassifyJobs of 1 000 held-out jobs, RF, cached → classify_* @ window_rf_s30
	{Name: "core.classify_batch1k_unique_ms", Unit: "ms", Better: "lower"}, // same jobs under new names → secondary_* @ window_rf_s30
	{Name: "core.classify_batch1k_serial_ms", Unit: "ms", Better: "lower"}, // the dup batch at GOMAXPROCS(1): what the worker pool buys
	{Name: "core.train_knn_cold_s", Unit: "s", Better: "lower"},            // Framework.Train, KNN, cold caches → setup_s @ qsub_knn_s30
	{Name: "core.train_rf_cold_s", Unit: "s", Better: "lower"},             // Framework.Train, RF, cold caches → setup_s @ RF workloads
	{Name: "core.train_overhead_s", Unit: "s", Better: "lower"},            // Train − TrainReport.TrainDuration: fetch, label, encode, persist

	{Name: "admission.admit_release_ns", Unit: "ns", Better: "lower"},           // Controller.Admit + Release → classify_p50_us @ qsub_rf_routed_s30
	{Name: "admission.shed_total", Unit: "count", Better: "lower", Exact: true}, // Controller.Stats shed over all nodes; must be 0

	{Name: "httpapi.classify_handler_us", Unit: "us", Better: "lower"},         // Server.ServeHTTP, POST /v1/classify of one job, RF, into a recorder → classify_* @ qsub_*
	{Name: "httpapi.classify_by_id_handler_us", Unit: "us", Better: "lower"},   // Server.ServeHTTP, GET /v1/classify/{id} → classify_* @ qsub_rf_routed_s30
	{Name: "httpapi.classify_batch1k_handler_ms", Unit: "ms", Better: "lower"}, // Server.ServeHTTP, 1 000-job POST /v1/classify → window_rf_s30
	{Name: "httpapi.insert_batch100_handler_us", Unit: "us", Better: "lower"},  // Server.ServeHTTP, 100-job POST /v1/jobs on the durable leader → secondary_* @ ingest_mixed_s30
	{Name: "httpapi.classify_handler_allocs", Unit: "count", Better: "lower"},  // allocations of one classify through the handler
	{Name: "httpapi.shell_us", Unit: "us", Better: "lower"},                    // classify handler − core: JSON, middleware, admission
	{Name: "httpapi.socket_us", Unit: "us", Better: "lower"},                   // direct HTTP classify − handler: net/http and the loopback socket

	{Name: "router.hop_p50_us", Unit: "us", Better: "lower"},                  // routed − direct GET /v1/classify/{id}, single client → classify_p50_us @ qsub_rf_routed_s30
	{Name: "router.write_hop_us", Unit: "us", Better: "lower"},                // routed − direct 100-job POST /v1/jobs → secondary_p50_ms @ ingest_mixed_s30
	{Name: "router.hedges_per_1k", Unit: "count", Better: "lower"},            // Router.Hedges delta per 1 000 routed requests of the passes
	{Name: "router.retries", Unit: "count", Better: "lower", Exact: true},     // retry-budget spends over the passes; must be 0
	{Name: "router.follower_read_share", Unit: "ratio", Better: "higher"},     // routed classify replies the follower served (the rest lost a hedge race to the leader)
	{Name: "router.stale_reads", Unit: "count", Better: "lower", Exact: true}, // replies carrying the staleness header; must be 0

	{Name: "runtime.alloc_bytes_per_op", Unit: "bytes", Better: "lower"}, // TotalAlloc delta ÷ jobs over the classify phase, whole process (servers + load generator)
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},      // Mallocs delta ÷ jobs, same
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},          // NumGC delta over both phases of all passes → classify tails, peak_rss_mb
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},           // PauseTotalNs delta, same

	{Name: "rate.classify_per_s", Unit: "1/s", Better: "higher"},  // jobs classified per second by the classify phase in its best stretch; not gated: a rate needs both processors undisturbed for the whole stretch, and ten seeds spread by 12–19 %
	{Name: "rate.secondary_per_s", Unit: "1/s", Better: "higher"}, // jobs per second through the secondary phase (classified cold, acked, or retrained), same

	{Name: "tail.classify_us", Unit: "us", Better: "lower"},                    // classify phase, highest percentile with ≥ 10 samples beyond it per pass; not gated (does not repeat within a tenth on a shared 2-core box)
	{Name: "tail.classify_pct", Unit: "count", Better: "higher", Exact: true},  // which percentile tail.classify_us is (99 needs 1 000 samples a pass)
	{Name: "tail.secondary_ms", Unit: "ms", Better: "lower"},                   // secondary phase, same rule
	{Name: "tail.secondary_pct", Unit: "count", Better: "higher", Exact: true}, // which percentile tail.secondary_ms is; 100 = the slowest sample, the pass being too small for a percentile

	{Name: "trace.classify_p50_us", Unit: "us", Better: "lower"},  // untraced single-client p50 of the classify path: the total of its budget table
	{Name: "trace.secondary_p50_ms", Unit: "ms", Better: "lower"}, // untraced single-client p50 of the secondary path
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},      // traced − untraced p50 of the classify path's outermost span
	{Name: "trace.spans", Unit: "count", Better: "higher"},        // spans written to the span file

	// Budget tables as shares of the untraced single-client p50; the rows
	// of a path, residual included, sum to 100.
	{Name: "budget.classify.router_pct", Unit: "%", Better: "lower"},    // router self time in the classify path
	{Name: "budget.classify.socket_pct", Unit: "%", Better: "lower"},    // net/http + loopback socket
	{Name: "budget.classify.httpapi_pct", Unit: "%", Better: "lower"},   // Server.ServeHTTP − core (− body decode where timed)
	{Name: "budget.classify.json_pct", Unit: "%", Better: "lower"},      // request body decode (batch bodies only)
	{Name: "budget.classify.core_pct", Unit: "%", Better: "lower"},      // Framework.Classify* − its children
	{Name: "budget.classify.fetch_pct", Unit: "%", Better: "lower"},     // Fetcher.FetchJob (by-id route only)
	{Name: "budget.classify.encode_pct", Unit: "%", Better: "lower"},    // Encoder.EncodeJob / Encode
	{Name: "budget.classify.model_pct", Unit: "%", Better: "lower"},     // Classifier.Predict − index search: ml/knn vote or ml/rf traversal
	{Name: "budget.classify.index_pct", Unit: "%", Better: "lower"},     // VectorIndex.Search: ml/ivf + linalg
	{Name: "budget.classify.residual_pct", Unit: "%", Better: "lower"},  // untraced p50 − traced rows
	{Name: "budget.secondary.router_pct", Unit: "%", Better: "lower"},   // router self time in the secondary path
	{Name: "budget.secondary.socket_pct", Unit: "%", Better: "lower"},   // net/http + loopback socket
	{Name: "budget.secondary.httpapi_pct", Unit: "%", Better: "lower"},  // Server.ServeHTTP − children
	{Name: "budget.secondary.json_pct", Unit: "%", Better: "lower"},     // request body decode
	{Name: "budget.secondary.core_pct", Unit: "%", Better: "lower"},     // Framework.ClassifyJobs / Train − children
	{Name: "budget.secondary.fetch_pct", Unit: "%", Better: "lower"},    // Fetcher.FetchExecuted (retrain)
	{Name: "budget.secondary.roofline_pct", Unit: "%", Better: "lower"}, // GenerateLabels (retrain)
	{Name: "budget.secondary.encode_pct", Unit: "%", Better: "lower"},   // Encoder.EncodeJob / Encode
	{Name: "budget.secondary.model_pct", Unit: "%", Better: "lower"},    // Classifier.Predict / Train − index
	{Name: "budget.secondary.index_pct", Unit: "%", Better: "lower"},    // VectorIndex.Search / ivf.Build
	{Name: "budget.secondary.persist_pct", Unit: "%", Better: "lower"},  // Registry.Save (retrain)
	{Name: "budget.secondary.durable_pct", Unit: "%", Better: "lower"},  // Durable.Insert − WAL − store (insert)
	{Name: "budget.secondary.wal_pct", Unit: "%", Better: "lower"},      // WAL.AppendBatch, fsync always (insert)
	{Name: "budget.secondary.store_pct", Unit: "%", Better: "lower"},    // Store.Insert (insert)
	{Name: "budget.secondary.residual_pct", Unit: "%", Better: "lower"}, // untraced p50 − traced rows
}

// runTraced is the traced part of a --trace 1 run: the workload's two
// paths traced single-client into spans and budget tables, the counts
// its passes caused, and the layer lab. It returns every per-layer
// metric.
func runTraced(e *env, w workloadRun, res *result) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}

	paths, err := w.paths(e)
	if err != nil {
		return nil, err
	}
	tr := &tracer{workload: e.cfg.Workload, epoch: e.started, budget: pathBudget, inputs: maxTraced}
	if e.cfg.Tiny {
		tr.budget, tr.inputs = pathBudget/30, maxTraced/100
	}
	for _, p := range paths {
		b, err := tr.run(p)
		if err != nil {
			return nil, err
		}
		b.print(e.cfg.Log)
		b.metrics(out)
		if p.name == "classify" {
			out["trace.classify_p50_us"] = b.untracedP50
			out["trace.overhead_pct"] = b.overheadPct()
		} else {
			out["trace.secondary_p50_ms"] = b.untracedP50 / 1e3
		}
	}
	spans := e.cfg.Spans
	if spans == "" {
		spans = filepath.Join(".bench_build", "spans-"+e.cfg.Workload+".jsonl")
	}
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out["trace.spans"] = float64(len(tr.spans))
	fmt.Fprintf(e.cfg.Log, "  %d spans written to %s\n", len(tr.spans), spans)

	phaseCounts(e, res, out)

	labOut, err := runLab(e)
	if err != nil {
		return nil, fmt.Errorf("layer lab: %w", err)
	}
	for k, v := range labOut {
		out[k] = v
	}

	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(e.cfg.Log, "  per-layer metrics\n")
	for _, k := range names {
		m, _ := findMetric(perLayer, k)
		fmt.Fprintf(e.cfg.Log, "    %-38s %14.6g %s\n", k, out[k], m.Unit)
	}
	return out, nil
}

// phaseCounts turns what the passes' counter readings and reply headers
// say into per-layer metrics.
func phaseCounts(e *env, res *result, out map[string]float64) {
	c, s := &res.classify, &res.secondary
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	out["encode.cache_hit_ratio"] = ratio(c.work.cacheHits, c.work.cacheMisses)
	out["encode.cache_hit_ratio_secondary"] = ratio(s.work.cacheHits, s.work.cacheMisses)
	if c.jobs > 0 {
		out["runtime.alloc_bytes_per_op"] = float64(c.work.allocBytes) / float64(c.jobs)
		out["runtime.allocs_per_op"] = float64(c.work.mallocs) / float64(c.jobs)
	}
	both := e.total
	out["runtime.gc_cycles"] = float64(both.gcCycles)
	out["runtime.gc_pause_ms"] = float64(both.gcPauseNS) / 1e6
	if both.walFsyncs > 0 {
		out["wal.records_per_fsync"] = float64(both.walAppends) / float64(both.walFsyncs)
	}
	if routed := c.routed + s.routed; routed > 0 {
		out["router.hedges_per_1k"] = float64(both.hedges) / float64(routed) * 1000
	}
	out["router.retries"] = float64(both.retries)
	if c.routed > 0 {
		out["router.follower_read_share"] = float64(c.fromN2) / float64(c.routed)
	}
	out["router.stale_reads"] = float64(c.stale + s.stale)

	shed := int64(0)
	for _, n := range e.fx.AllNodes() {
		shed += n.Admission.Stats().Shed()
	}
	out["admission.shed_total"] = float64(shed)

	out["rate.classify_per_s"] = stats.Best(c.perSec, false)
	out["rate.secondary_per_s"] = stats.Best(s.perSec, false)
	out["tail.classify_us"], out["tail.classify_pct"] = c.tail().Median, c.tailPct
	out["tail.secondary_ms"], out["tail.secondary_pct"] = s.tail().Median/1e3, s.tailPct
}
