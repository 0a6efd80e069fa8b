// Command benchmark is the repository's benchmark: named workloads
// against one in-process fixture, end-to-end metrics with --trace 0,
// per-layer metrics and a traced latency budget with --trace 1.
//
//	bash benchmark/run.sh --workload qsub_knn_s30 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result object the benchmark
// contract asks for; everything a person wants to read goes to standard
// error. See README.md for the workloads, the metric tables and the
// other modes (-workload all, -out, -compare, -scale).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mcbound/benchmark/fixture"
	"mcbound/benchmark/stats"
)

// runConfig is one run's arguments.
type runConfig struct {
	Workload string
	// Seed draws the requests: which held-out jobs are sent, in which
	// order, and the feed of an insert stream. TraceSeed generates the job
	// trace the deployment is loaded with and trained on — the dataset,
	// which the contract runs keep fixed (see README.md, "Steadiness").
	Seed      uint64
	TraceSeed uint64
	Seconds   int
	Trace     bool
	// Scale overrides the workload's trace scale (0 keeps it): the
	// opt-in larger runs, never the contract workloads.
	Scale int
	// Tiny cuts op counts to a handful (the smoke test).
	Tiny bool
	// Dir is where the run may write (WAL, model files, spans).
	Dir string
	// Spans is the span file of a traced run; "" puts it under Dir.
	Spans string
	Log   io.Writer
}

func (c runConfig) scaleOr(def int) int {
	if c.Scale > 0 {
		return c.Scale
	}
	if c.Tiny {
		return 1
	}
	return def
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the contract's result object.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envStamp says where and on what a result was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
	Passes     int    `json:"passes"`
}

// record is one workload run as -out stores it.
type record struct {
	Workload  string             `json:"workload"`
	Scale     int                `json:"scale"`
	Seed      uint64             `json:"seed"`
	TraceSeed uint64             `json:"trace_seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       envStamp           `json:"env"`
	OpCounts  map[string]int     `json:"op_counts"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	// Passes holds, in order, the values each reported one is the best
	// of: per pass its lowest stretch median, per build its set-up time.
	Passes map[string][]float64 `json:"passes,omitempty"`
	output
}

func main() {
	var cfg runConfig
	var traceFlag int
	var out, compare, spread string
	var printContract bool
	flag.StringVar(&cfg.Workload, "workload", "", `workload name, or "all"`)
	flag.Uint64Var(&cfg.Seed, "seed", 1, "request seed: the same seed gives the same requests in the same order")
	flag.Uint64Var(&cfg.TraceSeed, "trace-seed", traceSeed, "seed of the generated job trace (the dataset the models are trained on)")
	flag.IntVar(&cfg.Seconds, "seconds", runSeconds, "measuring time: the number of passes is sized for it and the clock stops them at it")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans and the budget tables")
	flag.IntVar(&cfg.Scale, "scale", 0, "override the workload's trace scale (opt-in larger runs; 0 keeps it)")
	flag.StringVar(&cfg.Spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
	flag.StringVar(&out, "out", "", "append each run's full record (environment stamp, op counts, metrics) to this JSON-lines file")
	flag.StringVar(&compare, "compare", "", "compare two -out files: -compare a.jsonl b.jsonl; exit 1 when an end-to-end metric worsens beyond its bound")
	flag.StringVar(&spread, "spread", "", "print the run-to-run spread of every end-to-end metric in an -out file; exit 1 when one exceeds its bound")
	flag.BoolVar(&printContract, "print-contract", false, "print BENCHMARK.json from the metric tables and exit")
	flag.Parse()
	cfg.Trace = traceFlag != 0
	cfg.Log = os.Stderr

	switch {
	case printContract:
		if err := writeContract(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case spread != "":
		unsteady, err := spreadFile(os.Stdout, spread)
		if err != nil {
			fatal(err)
		}
		if unsteady {
			os.Exit(1)
		}
		return
	case compare != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-compare takes two files: -compare a.jsonl b.jsonl"))
		}
		worse, err := compareFiles(os.Stdout, compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if cfg.Seconds < 1 {
		fatal(fmt.Errorf("-seconds %d < 1", cfg.Seconds))
	}
	names := []string{cfg.Workload}
	if cfg.Workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, err := newWorkload(cfg.Workload); err != nil {
		fatal(err)
	}

	// Everything the run writes lives under one directory in the checkout.
	base := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatal(err)
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.Workload, c.Dir = name, base
		rec, err := runWorkload(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			code = 1
			break
		}
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				break
			}
		}
		line, err := json.Marshal(rec.output)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
			break
		}
		fmt.Printf("%s\n", line)
		if !rec.Correct {
			code = 1
			break
		}
	}
	if err := os.RemoveAll(base); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// Set-up is timed setupsBefore times before the measured passes — every
// build but the last is torn down again — and once more after them, on
// a deployment nothing is measured on: three builds half a minute
// apart, so that a slow spell of the host does not fall on all of them.
const setupsBefore = 2

// minPasses are made however slow the host is: enough for the counters
// and for a handful of windows per phase.
const minPasses = 2

// setUp builds the workload's deployment under dir and prepares its
// inputs; the time both take is one set-up.
func setUp(cfg runConfig, e *env, dir string) (workloadRun, float64, error) {
	w, err := newWorkload(cfg.Workload) // its inputs belong to one fixture
	if err != nil {
		return nil, 0, err
	}
	opts := w.options(cfg, dir)
	if cfg.Trace {
		opts = labOptions(opts)
	}
	t0 := time.Now()
	fx, err := fixture.Build(opts)
	if err != nil {
		return nil, 0, err
	}
	e.fx, e.uniq, e.total = fx, 0, counters{}
	if err := w.prepare(e); err != nil {
		fx.Close()
		e.fx = nil
		return nil, 0, fmt.Errorf("prepare: %w", err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// tearDown closes e's deployment and gives its memory back, so that the
// next build does not sit on top of it: peak RSS must not depend on when
// the collector got to a discarded deployment.
func tearDown(e *env, dir string) error {
	if e.fx == nil {
		return nil
	}
	err := e.fx.Close()
	e.fx = nil
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	debug.FreeOSMemory()
	return err
}

// runWorkload builds the fixture, warms up, makes the measured passes,
// runs the checks and — traced — the layer measurements.
func runWorkload(cfg runConfig) (rec *record, err error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	// With -workload all the process has run other workloads before this
	// one: give their memory back and restart the resident-set high-water
	// mark, so peak_rss_mb is this workload's own. Where the kernel has no
	// clear_refs the mark of the largest workload so far stands.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.Log, format+"\n", args...) }
	logf("== %s seed=%d trace-seed=%d seconds=%d trace=%t", cfg.Workload, cfg.Seed, cfg.TraceSeed, cfg.Seconds, cfg.Trace)

	e := &env{cfg: cfg, started: time.Now()}
	for i := 0; i < numClients; i++ {
		e.clients = append(e.clients, newClient(fmt.Sprintf("bench-c%d", i)))
	}
	defer func() {
		for _, c := range e.clients {
			c.close()
		}
	}()

	// Set-up; the last build is the one measured on.
	repeatSetup := !cfg.Trace && !cfg.Tiny
	var w workloadRun
	var setups []float64
	dir := ""
	defer func() {
		if cerr := tearDown(e, dir); err == nil && cerr != nil {
			rec, err = nil, cerr
		}
	}()
	for rep := 0; ; rep++ {
		dir = filepath.Join(cfg.Dir, fmt.Sprintf("%s-setup%d", cfg.Workload, rep))
		var took float64
		if w, took, err = setUp(cfg, e, dir); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if !repeatSetup || rep+1 >= setupsBefore {
			break
		}
		if err := tearDown(e, dir); err != nil {
			return nil, err
		}
	}
	logf("  trace s%d seed %d: %d jobs, %d held-out labelled", e.fx.Trace.Scale, e.fx.Trace.Seed, len(e.fx.Trace.Jobs), len(e.fx.Trace.Held))

	t0 := time.Now()
	if err := w.warm(e); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	logf("  warm-up %.3fs (untimed)", time.Since(t0).Seconds())

	// The passes: as many as the workload sizes for --seconds on the
	// reference box, cut short when they have taken --seconds, so that a
	// slower host measures less work in the same time rather than the same
	// work in more. On the reference box the count binds, not the clock,
	// and the op counts repeat exactly.
	res := newResult(w.phases())
	limit, passes := e.passes(w), 0
	t0 = time.Now()
	for ; passes < limit && (passes < minPasses || time.Since(t0) < time.Duration(cfg.Seconds)*time.Second); passes++ {
		runtime.GC() // each pass starts from a collected heap, not the previous pass's garbage
		if err := w.pass(e, res); err != nil {
			return nil, fmt.Errorf("pass %d: %w", passes, err)
		}
	}
	measured := time.Since(t0)
	if err := w.finish(e, res); err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	if err := checkAdmission(e.fx); err != nil {
		return nil, err
	}
	if err := checkRouter(e.fx); err != nil {
		return nil, err
	}
	logf("  measured %d of %d passes in %.3fs", passes, limit, measured.Seconds())
	res.classify.describe(cfg.Log)
	res.secondary.describe(cfg.Log)
	logf("  f1_macro %.6f over %d held-out jobs", res.f1, res.f1Jobs)
	for _, k := range sortedKeys(res.extra) {
		logf("  %s %g", k, res.extra[k])
	}

	rec = &record{
		Workload: cfg.Workload, Scale: e.fx.Trace.Scale, Seed: cfg.Seed, TraceSeed: cfg.TraceSeed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Env: envStamp{
			Commit: gitCommit(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Clients: numClients, Passes: passes,
		},
		OpCounts: map[string]int{
			res.classify.name + ".attempted":  res.classify.attempted,
			res.classify.name + ".failed":     res.classify.failed,
			res.secondary.name + ".attempted": res.secondary.attempted,
			res.secondary.name + ".failed":    res.secondary.failed,
		},
		Extra: res.extra,
	}
	rec.Attempted = res.classify.attempted + res.secondary.attempted
	rec.Failed = res.classify.failed + res.secondary.failed
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rec.Metrics = map[string]metricValue{}

	if cfg.Trace {
		layer, err := runTraced(e, w, res)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for _, m := range perLayer {
			rec.Metrics[m.Name] = metricValue{Value: layer[m.Name], Unit: m.Unit}
		}
		for name := range layer {
			if _, ok := findMetric(perLayer, name); !ok {
				return nil, fmt.Errorf("traced run produced undeclared metric %q", name)
			}
		}
		return rec, nil
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if repeatSetup {
		// The set-up after the passes, on a deployment of its own.
		if err := tearDown(e, dir); err != nil {
			return nil, err
		}
		dir = filepath.Join(cfg.Dir, cfg.Workload+"-setup-after")
		_, took, err := setUp(cfg, e, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	secondaryMS := make([]float64, len(res.secondary.passP50us))
	for i, us := range res.secondary.passP50us {
		secondaryMS[i] = us / 1e3
	}
	rec.Passes = map[string][]float64{
		"setup_s":          setups,
		"classify_p50_us":  res.classify.passP50us,
		"secondary_p50_ms": secondaryMS,
		"f1_macro":         {res.f1},
		"peak_rss_mb":      {rss},
	}
	logf("  %-18s %14s  %s", "end-to-end", "best", "of")
	for _, m := range endToEnd {
		v := rec.Passes[m.Name]
		best := stats.Best(v, m.Better == "lower")
		rec.Metrics[m.Name] = metricValue{Value: best, Unit: m.Unit}
		logf("  %-18s %14.6g  %d %s", m.Name, best, len(v), m.Unit)
		if best <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s is %g; it must be measured and positive", m.Name, best)
		}
	}
	return rec, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkAdmission holds every node to the accounting identity
// offered = admitted + shed, with nothing shed: the workloads are sized
// so that no request is refused.
func checkAdmission(fx *fixture.Fixture) error {
	for _, n := range fx.AllNodes() {
		st := n.Admission.Stats()
		if st.Offered != st.Admitted+st.Shed() {
			return fmt.Errorf("admission identity broken on a %s node: offered %d != admitted %d + shed %d",
				n.Kind, st.Offered, st.Admitted, st.Shed())
		}
		if st.Shed() != 0 {
			return fmt.Errorf("admission shed %d requests on a %s node; the workloads must not be refused", st.Shed(), n.Kind)
		}
	}
	return nil
}

// checkRouter requires that the front door spent no retry: on a healthy
// fleet a retry means a backend failed a request.
func checkRouter(fx *fixture.Fixture) error {
	if fx.Router == nil {
		return nil
	}
	if n := fx.Router.Budget().Retries(); n != 0 {
		return fmt.Errorf("router spent %d retries on a healthy fleet", n)
	}
	return nil
}

// gitCommit stamps results taken at the root of a git checkout, reading
// .git directly (no process, nothing outside the checkout); the
// benchmark driver's checkout is not a repository, and then the stamp
// says "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return short(ref)
	}
	if sha, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return short(strings.TrimSpace(string(sha)))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return short(sha)
		}
	}
	return "unknown"
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
