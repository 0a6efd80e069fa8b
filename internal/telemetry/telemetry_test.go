package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests", Labels{"route": "/x"})
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if again := reg.Counter("reqs_total", "requests", Labels{"route": "/x"}); again != c {
		t.Error("Counter not idempotent for identical name+labels")
	}

	g := reg.Gauge("temp", "temperature", nil)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Cumulative: le=0.1 → 1, le=1 → 3, le=10 → 4, +Inf → 5.
	want := []int64{1, 3, 4, 5}
	for i, w := range h.BucketCounts() {
		if w != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, w, want[i])
		}
	}
	// A value exactly on a bound lands in that bucket (le semantics).
	h.Observe(0.1)
	if got := h.BucketCounts()[0]; got != 2 {
		t.Errorf("le=0.1 bucket after boundary observe = %d, want 2", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mc_reqs_total", "requests served", Labels{"route": "/v1/x", "code": "200"}).Add(3)
	reg.Gauge("mc_jobs", "stored jobs", nil).Set(42)
	reg.GaugeFunc("mc_live", "sampled", nil, func() float64 { return 7 })
	reg.Histogram("mc_lat_seconds", "latency", []float64{0.5}, Labels{"route": "/v1/x"}).Observe(0.25)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP mc_reqs_total requests served",
		"# TYPE mc_reqs_total counter",
		`mc_reqs_total{code="200",route="/v1/x"} 3`,
		"# TYPE mc_jobs gauge",
		"mc_jobs 42",
		"mc_live 7",
		"# TYPE mc_lat_seconds histogram",
		`mc_lat_seconds_bucket{route="/v1/x",le="0.5"} 1`,
		`mc_lat_seconds_bucket{route="/v1/x",le="+Inf"} 1`,
		`mc_lat_seconds_sum{route="/v1/x"} 0.25`,
		`mc_lat_seconds_count{route="/v1/x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				reg.Counter("c_total", "", nil).Inc()
				reg.Gauge("g", "", nil).Set(float64(k))
				reg.Histogram("h", "", []float64{1}, nil).Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total", "", nil).Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Gauge("g", "", nil).Value(); got != 999 {
		t.Errorf("gauge = %g, want the last value set, 999", got)
	}
	if got := reg.Histogram("h", "", []float64{1}, nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "", nil)
}
