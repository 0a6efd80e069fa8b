package httpapi

import (
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml/ivf"
	"mcbound/internal/store"
	"mcbound/internal/telemetry"
	"mcbound/internal/wal"
)

// trainBuckets cover the Training Workflow from a sub-second fit (an RF
// node at s30, 25 K jobs, trains in ≈ 0.5 s) to the minutes the paper
// reports at production trace scale (Fig. 7).
var trainBuckets = []float64{.01, .05, .1, .5, 1, 5, 15, 60, 300}

// appMetrics instruments the framework hot paths behind the API: train
// duration and window composition, classify throughput and latency,
// ingest volume and store size, plus the serving-path internals the
// hot-swap redesign added — a train-inflight gauge, coalesced-trigger
// counting and embedding-cache effectiveness.
type appMetrics struct {
	trainRuns       func(outcome string) *telemetry.Counter
	trainDuration   *telemetry.Histogram
	jobsFetched     *telemetry.Counter
	jobsLabeled     *telemetry.Counter
	jobsSkipped     *telemetry.Counter
	jobsQuarantined *telemetry.Counter
	modelVersion    *telemetry.Gauge

	classifyJobs     *telemetry.Counter
	classifyDuration *telemetry.Histogram
	insertedJobs     *telemetry.Counter
}

func newAppMetrics(reg *telemetry.Registry, storeLen func() int, fw *core.Framework, clk clock.Clock) *appMetrics {
	reg.GaugeFunc("mcbound_store_jobs", "Jobs currently in the data storage.",
		nil, func() float64 { return float64(storeLen()) })
	reg.GaugeFunc("mcbound_train_inflight", "1 while a Training Workflow is executing, else 0.",
		nil, func() float64 {
			if fw.TrainingInFlight() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mcbound_model_staleness_seconds",
		"Age of the served model (seconds since its training instant); 0 until first fit.",
		nil, func() float64 {
			if age, ok := fw.ModelAge(clk.Now()); ok {
				return age.Seconds()
			}
			return 0
		})
	reg.GaugeFunc("mcbound_degraded_predictions_total",
		"Predictions answered by the lookup fallback instead of the vector model.",
		nil, func() float64 { return float64(fw.DegradedPredictions()) })
	reg.GaugeFunc("mcbound_classify_memo_hits",
		"Predictions answered from the served model's label noted on an embedding-cache entry, with no vector and no model.",
		nil, func() float64 { return float64(fw.MemoHits()) })
	// IVF index counters read the ivf package's process-wide totals,
	// which stay monotone across model hot-swaps (a per-index counter
	// would reset on every retrain).
	reg.CounterFunc("mcbound_index_probes_total",
		"IVF cluster scans issued by index-accelerated classification.", nil,
		ivf.TotalProbes)
	reg.CounterFunc("mcbound_index_rerank_candidates_total",
		"Candidates re-ranked with exact distances by index-accelerated classification.", nil,
		ivf.TotalReranked)
	reg.GaugeFunc("mcbound_index_enabled",
		"1 while the served model carries an IVF index, else 0.", nil,
		func() float64 {
			if fw.IndexInfo().Enabled {
				return 1
			}
			return 0
		})
	// Which distance kernels this process runs: a node on a CPU (or a
	// build) without AVX2 serves the same answers several times slower,
	// and this is where its mcbound_index_* latency explains itself.
	reg.Gauge("mcbound_linalg_kernel_info",
		"Backend of the linalg distance kernels (impl: avx2 or generic); always 1.",
		telemetry.Labels{"impl": linalg.Kernel()}).Set(1)
	// Like the ivf totals, the job codec's count is process-wide: it also
	// moves for WAL-replay and bootstrap records that needed the fallback.
	reg.CounterFunc("mcbound_http_decode_fallback_total",
		"Job bodies and records outside the strict wire codec's subset, decoded by encoding/json instead.", nil,
		job.Fallbacks)
	enc := fw.Encoder()
	reg.GaugeFunc("mcbound_encode_cache_hits", "Embedding cache hits since start.",
		nil, func() float64 { return float64(enc.CacheStats().Hits) })
	reg.GaugeFunc("mcbound_encode_cache_misses", "Embedding cache misses since start.",
		nil, func() float64 { return float64(enc.CacheStats().Misses) })
	reg.GaugeFunc("mcbound_encode_cache_evictions", "Feature strings evicted from the embedding cache since start.",
		nil, func() float64 { return float64(enc.CacheStats().Evictions) })
	reg.GaugeFunc("mcbound_encode_cache_entries", "Feature strings currently memoized in the embedding cache.",
		nil, func() float64 { return float64(enc.CacheStats().Entries) })
	return &appMetrics{
		trainRuns: func(outcome string) *telemetry.Counter {
			return reg.Counter("mcbound_train_runs_total",
				"Training Workflow triggers by outcome.", telemetry.Labels{"outcome": outcome})
		},
		trainDuration: reg.Histogram("mcbound_train_duration_seconds",
			"Model fit duration per successful Training Workflow.", trainBuckets, nil),
		jobsFetched: reg.Counter("mcbound_train_jobs_fetched_total",
			"Jobs fetched into training windows.", nil),
		jobsLabeled: reg.Counter("mcbound_train_jobs_labeled_total",
			"Jobs the Roofline characterizer labeled for training.", nil),
		jobsSkipped: reg.Counter("mcbound_train_jobs_skipped_total",
			"Jobs in training windows without characterizable counters.", nil),
		jobsQuarantined: reg.Counter("mcbound_train_jobs_quarantined_total",
			"Jobs dropped from training windows for pathological (NaN/Inf/negative) counters.", nil),
		modelVersion: reg.Gauge("mcbound_model_version",
			"Version of the currently served model (0 = unpersisted).", nil),
		classifyJobs: reg.Counter("mcbound_classify_jobs_total",
			"Jobs classified by the Inference Workflow.", nil),
		classifyDuration: reg.Histogram("mcbound_classify_duration_seconds",
			"Inference Workflow latency per request.", nil, nil),
		insertedJobs: reg.Counter("mcbound_jobs_inserted_total",
			"Job records accepted by POST /v1/jobs.", nil),
	}
}

// registerWALMetrics exposes the durable store's log counters. The
// append-latency histogram is not here: it is created by the caller who
// owns the registry and wired in via DurableOptions.AppendObserver, so
// it observes every append from the moment the WAL opens. durable is a
// provider, not a value: a follower has no durable store until a
// promotion attaches one, and the gauges read 0 until then.
func registerWALMetrics(reg *telemetry.Registry, durable func() *store.Durable) {
	stats := func() wal.Stats {
		if d := durable(); d != nil {
			return d.Stats()
		}
		return wal.Stats{}
	}
	reg.CounterFunc("mcbound_wal_appends_total",
		"Records acknowledged through the write-ahead log.", nil,
		func() int64 { return stats().Appends })
	reg.CounterFunc("mcbound_wal_bytes_total",
		"Framed bytes written to WAL segments.", nil,
		func() int64 { return stats().AppendedBytes })
	reg.CounterFunc("mcbound_wal_fsyncs_total",
		"fsync calls issued on WAL segment files.", nil,
		func() int64 { return stats().Fsyncs })
	reg.GaugeFunc("mcbound_wal_segments",
		"Live WAL segment files including the active one.", nil,
		func() float64 { return float64(stats().Segments) })
	reg.GaugeFunc("mcbound_wal_recovered_records",
		"Records replayed (snapshot + segments) by the last boot.", nil,
		func() float64 { return float64(stats().RecoveredRecords) })
	reg.GaugeFunc("mcbound_wal_torn_tail_truncations",
		"Torn log tails truncated by the last boot's recovery.", nil,
		func() float64 { return float64(stats().TornTailTruncations) })
}

// observeTrain records one Training Workflow trigger. rep may be nil on
// early failures. A coalesced trigger shares a fit that its originating
// trigger already accounted for, so only the outcome counter moves.
func (m *appMetrics) observeTrain(rep *core.TrainReport, err error) {
	if err != nil {
		m.trainRuns("error").Inc()
		return
	}
	if rep.Coalesced {
		m.trainRuns("coalesced").Inc()
		return
	}
	m.trainRuns("ok").Inc()
	m.trainDuration.Observe(rep.TrainDuration.Seconds())
	m.jobsFetched.Add(int64(rep.FetchedJobs))
	m.jobsLabeled.Add(int64(rep.LabeledJobs))
	m.jobsSkipped.Add(int64(rep.SkippedJobs))
	m.jobsQuarantined.Add(int64(rep.QuarantinedJobs))
	m.modelVersion.Set(float64(rep.ModelVersion))
}

// observeClassify records one Inference Workflow execution of n jobs.
func (m *appMetrics) observeClassify(n int, d time.Duration) {
	m.classifyJobs.Add(int64(n))
	m.classifyDuration.Observe(d.Seconds())
}
