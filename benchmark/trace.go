package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"mcbound/benchmark/stats"
)

// Tracing from outside. The program has no spans of its own yet, so the
// harness times successive entry points on the same input — the router
// URL, the node URL, Server.ServeHTTP, Framework.ClassifyJobs,
// Encoder.EncodeJob, Classifier.Predict, VectorIndex.Search — each call
// one span, each span's parent the entry point that encloses it in the
// real request. A layer's self time is its span minus its child spans.

// stage is one timed entry point of a path.
type stage struct {
	span   string // the call timed
	layer  string // the package(s) whose self time the row shows
	key    string // metric key of the row: budget.<path>.<key>_pct
	parent int    // index of the enclosing stage, -1 for the outermost
	// prep does the untimed preparation for input i and returns the call
	// to time.
	prep func(i int) (func() error, error)
}

// tracePath is one chain of entry points, outermost first.
type tracePath struct {
	name    string // "classify" or "secondary"
	what    string // what the path is on this workload
	samples int    // inputs to trace at most
	stages  []stage
	// after, when set, runs once the path is done (e.g. wait for the
	// follower to drain what the insert path wrote).
	after func() error
}

// span is one record of spans.jsonl.
type span struct {
	Workload string `json:"workload"`
	Path     string `json:"path"`
	Request  int    `json:"request"`
	Name     string `json:"span"`
	Layer    string `json:"layer"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	// budget and inputs cap a path: pathBudget and maxTraced, or a sliver
	// of them for the smoke test.
	budget time.Duration
	inputs int
}

// A traced path is cut short by wall time so a slow one (a 1 000-job
// batch, a retrain cycle) does not stretch the run: no new chunk starts
// after pathBudget, but at least minTraced inputs are traced.
const (
	pathBudget = 3 * time.Second
	minTraced  = 2
	maxTraced  = 2000
	traceChunk = 10
)

// budgetRow is one line of a budget table.
type budgetRow struct {
	layer, span, key string
	medianUS, selfUS float64
}

// budget is a path's table: rows whose self times, with the residual,
// sum to the untraced single-client p50 of the outermost entry point.
type budget struct {
	path        tracePath
	traced      int
	untracedP50 float64 // µs
	tracedP50   float64 // µs, outermost span in the traced pass
	rows        []budgetRow
	residualUS  float64
}

func (b *budget) overheadPct() float64 {
	if b.untracedP50 == 0 {
		return 0
	}
	return (b.tracedP50 - b.untracedP50) / b.untracedP50 * 100
}

// run measures path p in chunks of up to traceChunk inputs. Within a chunk
// each entry point is called on every input back to back, after one
// unrecorded priming call — so it is timed in its own steady state, as
// in a closed loop, not woken from idle after some other stage's work —
// with a span per call. The outermost entry point is called twice per
// input, once without a span: those samples are the untraced pass.
// Small chunks keep the stages close in time, so a shift in the host's
// speed falls on all of them alike.
func (t *tracer) run(p tracePath) (*budget, error) {
	n := min(p.samples, t.inputs)
	timeOne := func(s stage, i int) (time.Time, time.Time, error) {
		call, err := s.prep(i)
		if err != nil {
			return time.Time{}, time.Time{}, err
		}
		t0 := time.Now()
		err = call()
		return t0, time.Now(), err
	}

	// Size the chunks from one outermost call, so that a slow path still
	// gets a few of them inside its budget.
	t0, t1, err := timeOne(p.stages[0], 0)
	if err != nil {
		return nil, fmt.Errorf("%s path, %s: %w", p.name, p.stages[0].span, err)
	}
	perChunk := 4 * (len(p.stages) + 1) * int(t1.Sub(t0)+1)
	chunk := max(minTraced, min(traceChunk, int(t.budget)/perChunk))

	var untraced []float64
	per := make([][]float64, len(p.stages))
	began := time.Now()
	traced := 0
	for lo := 0; lo < n && (lo < minTraced || time.Since(began) < t.budget); lo += chunk {
		hi := min(lo+chunk, n)
		for si, s := range p.stages {
			parent := ""
			if s.parent >= 0 {
				parent = p.stages[s.parent].span
			}
			if _, _, err := timeOne(s, lo); err != nil { // prime, unrecorded
				return nil, fmt.Errorf("%s path, %s: %w", p.name, s.span, err)
			}
			for i := lo; i < hi; i++ {
				// The untraced sample of the outermost entry point is taken
				// right beside its traced twin: before it on even inputs,
				// after it on odd ones, because the second call on an input
				// finds it warm and would otherwise always be the same one.
				bare := func() error {
					t0, t1, err := timeOne(s, i)
					if err != nil {
						return fmt.Errorf("%s path, untraced %s: %w", p.name, s.span, err)
					}
					untraced = append(untraced, float64(t1.Sub(t0).Nanoseconds())/1e3)
					return nil
				}
				if si == 0 && i%2 == 0 {
					if err := bare(); err != nil {
						return nil, err
					}
				}
				t0, t1, err := timeOne(s, i)
				if err != nil {
					return nil, fmt.Errorf("%s path, %s: %w", p.name, s.span, err)
				}
				t.spans = append(t.spans, span{
					Workload: t.workload, Path: p.name, Request: i, Name: s.span, Layer: s.layer, Parent: parent,
					StartNS: t0.Sub(t.epoch).Nanoseconds(), EndNS: t1.Sub(t.epoch).Nanoseconds(),
				})
				per[si] = append(per[si], float64(t1.Sub(t0).Nanoseconds())/1e3)
				if si == 0 && i%2 == 1 {
					if err := bare(); err != nil {
						return nil, err
					}
				}
			}
		}
		traced = hi
	}
	if p.after != nil {
		if err := p.after(); err != nil {
			return nil, err
		}
	}

	med := make([]float64, len(p.stages))
	for si := range p.stages {
		med[si] = stats.Summarize(per[si]).Median
	}
	b := &budget{path: p, traced: traced, untracedP50: stats.Summarize(untraced).Median, tracedP50: med[0]}
	sum := 0.0
	for si, s := range p.stages {
		self := med[si]
		for ci, c := range p.stages {
			if c.parent == si {
				self -= med[ci]
			}
		}
		b.rows = append(b.rows, budgetRow{layer: s.layer, span: s.span, key: s.key, medianUS: med[si], selfUS: self})
		sum += self
	}
	b.residualUS = b.untracedP50 - sum
	return b, nil
}

// print writes the table; its self column and the residual add up to
// the untraced p50 exactly, by construction.
func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "  budget: %s path = %s (%d inputs traced, single client)\n", b.path.name, b.path.what, b.traced)
	fmt.Fprintf(w, "    %-36s %-30s %12s %12s %7s\n", "layer", "span", "median_us", "self_us", "share")
	share := func(us float64) float64 {
		if b.untracedP50 == 0 {
			return 0
		}
		return us / b.untracedP50 * 100
	}
	for _, r := range b.rows {
		fmt.Fprintf(w, "    %-36s %-30s %12.1f %12.1f %6.1f%%\n", r.layer, r.span, r.medianUS, r.selfUS, share(r.selfUS))
	}
	fmt.Fprintf(w, "    %-36s %-30s %12s %12.1f %6.1f%%\n", "residual", "untraced p50 - traced rows", "", b.residualUS, share(b.residualUS))
	fmt.Fprintf(w, "    %-36s %-30s %12s %12.1f %6.1f%%  (traced p50 %.1f us, overhead %+.2f%%)\n",
		"total", "untraced end-to-end p50", "", b.untracedP50, 100.0, b.tracedP50, b.overheadPct())
}

// metrics adds the table to the per-layer metrics as shares of the
// untraced p50; rows sharing a key (the two models of a retrain cycle)
// add up.
func (b *budget) metrics(out map[string]float64) {
	if b.untracedP50 == 0 {
		return
	}
	for _, r := range b.rows {
		out["budget."+b.path.name+"."+r.key+"_pct"] += r.selfUS / b.untracedP50 * 100
	}
	out["budget."+b.path.name+".residual_pct"] = b.residualUS / b.untracedP50 * 100
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
