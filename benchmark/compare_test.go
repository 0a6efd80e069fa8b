package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func writeRuns(t *testing.T, path, workload string, metric string, unit string, values ...float64) {
	t.Helper()
	for i, v := range values {
		rec := &record{Workload: workload, Seed: uint64(i + 1)}
		rec.Correct, rec.Attempted = true, 10
		rec.Metrics = map[string]metricValue{metric: {Value: v, Unit: unit}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFlagsOnlyLossesBeyondTheBound(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, metric, unit string
		a, b               []float64
		worse              bool
	}{
		{"latency up 10% stays inside a 25% bound", "classify_p50_us", "us", []float64{100, 102, 98}, []float64{110, 111, 109}, false},
		{"latency up 40% is a loss", "classify_p50_us", "us", []float64{100, 102, 98}, []float64{140, 141, 139}, true},
		{"latency down is a gain, never a loss", "classify_p50_us", "us", []float64{100}, []float64{40}, false},
		{"a higher-is-better metric down 40% is a loss", "f1_macro", "score", []float64{0.8}, []float64{0.48}, true},
		{"a higher-is-better metric up is a gain", "f1_macro", "score", []float64{0.5}, []float64{0.95}, false},
		{"an ungated rate may move freely", "rate.classify_per_s", "1/s", []float64{1000}, []float64{600}, false},
		{"an exact count that moved is flagged", "ivf.nprobe", "count", []float64{30}, []float64{31}, true},
		{"an exact count that repeats is not", "ivf.nprobe", "count", []float64{30}, []float64{30}, false},
		{"an ungated layer time may move freely", "store.get_ns", "ns", []float64{30}, []float64{90}, false},
	}
	for i, c := range cases {
		a := filepath.Join(dir, "a"+string(rune('0'+i))+".jsonl")
		b := filepath.Join(dir, "b"+string(rune('0'+i))+".jsonl")
		writeRuns(t, a, "qsub_knn_s30", c.metric, c.unit, c.a...)
		writeRuns(t, b, "qsub_knn_s30", c.metric, c.unit, c.b...)
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse=%t, want %t\n%s", c.name, worse, c.worse, out.String())
		}
	}
}

func TestCompareRefusesFailedRuns(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeRuns(t, a, "window_rf_s30", "classify_p50_us", "us", 100)
	bad := &record{Workload: "window_rf_s30", Seed: 1}
	bad.Attempted, bad.Failed = 10, 1
	bad.Metrics = map[string]metricValue{"classify_p50_us": {Value: 100, Unit: "us"}}
	if err := appendRecord(b, bad); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil || !worse || !strings.Contains(out.String(), "FAILED RUN") {
		t.Fatalf("a set with a failed run must not pass: worse=%t err=%v\n%s", worse, err, out.String())
	}
}

func TestSpreadUsesTheContractQuartiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	// statistics.quantiles(range(100, 110), n=4) = [101.75, 104.5, 107.25]: spread 5.26%.
	writeRuns(t, path, "qsub_knn_s30", "classify_p50_us", "us", 100, 101, 102, 103, 104, 105, 106, 107, 108, 109)
	var out bytes.Buffer
	unsteady, err := spreadFile(&out, path)
	if err != nil || unsteady {
		t.Fatalf("unsteady=%t err=%v\n%s", unsteady, err, out.String())
	}
	if !strings.Contains(out.String(), "5.26%") {
		t.Errorf("spread of 100..109 should print as 5.26%%:\n%s", out.String())
	}
	// One metric spread far beyond any bound.
	wide := filepath.Join(t.TempDir(), "wide.jsonl")
	writeRuns(t, wide, "qsub_knn_s30", "secondary_p50_ms", "ms", 100, 100, 100, 200, 200, 300, 300, 400, 400, 400)
	if unsteady, err := spreadFile(&out, wide); err != nil || !unsteady {
		t.Fatalf("a 100%% spread must be unsteady: unsteady=%t err=%v", unsteady, err)
	}
}
