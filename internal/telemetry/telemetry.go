// Package telemetry is a dependency-free metrics toolkit for the MCBound
// serving path: atomic counters, gauges and fixed-bucket latency
// histograms collected in a Registry that renders the Prometheus text
// exposition format (version 0.0.4). It exists because the paper's
// deployment (§III-E) is a long-running backend retrained by cron, and
// an online classifier lives or dies by its operational visibility —
// but this repository must not pull external dependencies, so the
// registry is built from sync/atomic primitives only.
//
// All metric types are safe for concurrent use; hot-path updates are a
// single atomic op (plus one CAS loop for float accumulation).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach Prometheus-style dimensions to a metric series.
type Labels map[string]string

// DefBuckets are the default latency histogram bounds in seconds,
// matching the Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns count bounds starting at start and growing
// by factor — the natural shape for queue-wait distributions that span
// microseconds to seconds. Panics on non-positive start, factor <= 1 or
// count < 1, mirroring the Prometheus client contract.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExponentialBuckets requires start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, series string) {
	fmt.Fprintf(w, "%s %d\n", series, c.v.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates a delta (CAS loop).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, series string) {
	fmt.Fprintf(w, "%s %s\n", series, formatFloat(g.Value()))
}

// gaugeFunc samples a callback at exposition time (e.g. store size).
type gaugeFunc struct {
	fn func() float64
}

func (g *gaugeFunc) write(w io.Writer, series string) {
	fmt.Fprintf(w, "%s %s\n", series, formatFloat(g.fn()))
}

// counterFunc exposes an externally maintained monotonic count (e.g.
// the admission controller's shed counters) without double bookkeeping.
type counterFunc struct {
	fn func() int64
}

func (c *counterFunc) write(w io.Writer, series string) {
	fmt.Fprintf(w, "%s %d\n", series, c.fn())
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative at
// exposition, matching the Prometheus histogram contract.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	slices.Sort(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the cumulative per-bucket counts including +Inf.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) write(w io.Writer, series string) {
	name, labels := splitSeries(series)
	cum := h.BucketCounts()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", formatFloat(b)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

type seriesWriter interface {
	write(w io.Writer, series string)
}

type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          map[string]seriesWriter // keyed by rendered label set
	order           []string
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]seriesWriter)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

func (f *family) getOrCreate(labels Labels, mk func() seriesWriter) seriesWriter {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter series for name+labels, creating it on
// first use (idempotent, safe for concurrent callers).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.family(name, help, "counter").getOrCreate(labels, func() seriesWriter { return &Counter{} })
	return s.(*Counter)
}

// Gauge returns the gauge series for name+labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.family(name, help, "gauge").getOrCreate(labels, func() seriesWriter { return &Gauge{} })
	return s.(*Gauge)
}

// GaugeFunc registers a gauge sampled from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.family(name, help, "gauge").getOrCreate(labels, func() seriesWriter { return &gaugeFunc{fn: fn} })
}

// CounterFunc registers a counter sampled from fn at exposition time.
// fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	r.family(name, help, "counter").getOrCreate(labels, func() seriesWriter { return &counterFunc{fn: fn} })
}

// Histogram returns the histogram series for name+labels with the given
// bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	s := r.family(name, help, "histogram").getOrCreate(labels, func() seriesWriter { return newHistogram(buckets) })
	return s.(*Histogram)
}

// WritePrometheus renders every family in the text exposition format,
// families in registration order, series sorted within each family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		sort.Strings(keys)
		series := make([]seriesWriter, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.Unlock()

		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i, s := range series {
			s.write(w, f.name+keys[i])
		}
	}
}

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// renderLabels produces a deterministic `{k="v",...}` suffix ("" when
// empty) used both as map key and exposition text.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote and newline, which is exactly
		// the Prometheus label-value escape set.
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries separates "name{labels}" back into its parts.
func splitSeries(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// mergeLabel inserts one extra label pair into a rendered label set
// (used for histogram `le` buckets).
func mergeLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
