package main

import (
	"fmt"
	"strings"
)

// The benchmark's metric and workload tables. BENCHMARK.json at the
// repository root is printed from them (`-print-contract`), the run
// output is checked against them, and `-compare` takes its bounds and
// directions from them — one source for the names.

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a count the program makes that must repeat exactly
	// between two runs of one commit on one seed.
	Exact bool `json:"-"`
}

// workloadSpec names one workload and builds a fresh run of it.
type workloadSpec struct {
	Name string             `json:"name"`
	Why  string             `json:"why"`
	New  func() workloadRun `json:"-"`
}

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// pass counts are sized for on the 2-core reference box. The driver
// makes 4 + 22 × workloads runs inside 3 420 s, builds included: with
// three workloads, and three set-ups a run, that leaves 25 s to measure.
const runSeconds = 25

// traceSeed generates the job trace of every contract run. The dataset
// is fixed, as in any benchmark that trains on one; the run's --seed
// draws the requests.
const traceSeed = 1

// Every bound is the contract's ceiling, a quarter: what ten runs on ten
// seeds may spread, and what a later change may lose, before the driver
// refuses it. The box the benchmark is measured on is a 2-vCPU guest of
// a shared host that takes the processors away for milliseconds at a
// time and runs them at 0.6 of their speed for seconds at a time, so a
// latency or a rate is reported as the best stretch of the run — the
// program's speed while it was left alone (README.md, "Steadiness") —
// and ten seeds then spread by 3–14 %, mostly under a third of the bound.
//
// Every workload reports every end-to-end metric, so the names describe
// a role, and README.md says what fills the role on each workload:
// `classify_*` is the workload's stream of classify requests, and
// `secondary_*` is what runs beside or after it (the cold-cache variant,
// the insert stream, the retrain cycle).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},           // trace generation, store load, initial Training Workflow, cluster bring-up and input preparation; fastest of the set-ups in the run
	{Name: "classify_p50_us", Unit: "us", Better: "lower", Bound: 0.25},  // median latency of the workload's classify requests, as the client sees it, in the best stretch
	{Name: "secondary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}, // median latency of the workload's second operation: cold-cache classify, unique-name window, insert ack, or retrain cycle
	{Name: "f1_macro", Unit: "score", Better: "higher", Bound: 0.25},     // F1-macro of the HTTP predictions against the roofline labels of the held-out jobs (internal/metrics)
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},      // VmHWM of the benchmark process, which holds servers, stores, models and the load generator
}

// workloads are the contract's: the ones BENCHMARK.json names and the
// driver gates.
var workloads = []workloadSpec{
	{Name: "qsub_knn_s30", New: func() workloadRun { return &qsubKNN{} }, Why: "index-bound: single-job POST /v1/classify at one KNN node with IVF on; ml/ivf + linalg int8 scan dominate, shell under 10%"},
	{Name: "qsub_rf_routed_s30", New: func() workloadRun { return &qsubRouted{} }, Why: "shell-bound: GET /v1/classify/{id} through router to real leader + live follower with RF; model is ~15%, hop/socket/JSON dominate"},
	{Name: "window_rf_s30", New: func() workloadRun { return &windowRF{} }, Why: "periodic trigger: 1000-job POST /v1/classify, trace's own duplication vs unique names; same core/encode/rf code with and without cache hits"},
}

// ungated run by name only. Each has three activities competing for
// two processors by design (writes beside reads beside a follower;
// two fits beside a client), so on a shared 2-core host its numbers
// say more about the scheduler than about the program, and the
// driver's run-time cap has no room for them beside longer runs of the
// three above (README.md, "Where this departs from the issue").
var ungated = []workloadSpec{
	{Name: "ingest_mixed_s30", New: func() workloadRun { return &ingestMixed{} }, Why: "writes beside reads: 100-job POST /v1/jobs via router to leader WAL (fsync always) and follower while routed classify reads continue"},
	{Name: "retrain_live_s10", New: func() workloadRun { return &retrainLive{} }, Why: "Training Workflow end to end (KNN-IVF then RF, persisted, hot-swapped) while a client keeps classifying against the published model"},
}

func findMetric(specs []metricSpec, name string) (metricSpec, bool) {
	for _, m := range specs {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// newWorkload builds a fresh run of the named workload.
func newWorkload(name string) (workloadRun, error) {
	for _, w := range append(append([]workloadSpec(nil), workloads...), ungated...) {
		if w.Name == name {
			return w.New(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

func workloadNames() string {
	var names []string
	for _, w := range append(append([]workloadSpec(nil), workloads...), ungated...) {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
