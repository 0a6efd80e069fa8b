package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"mcbound/internal/core"
	"mcbound/internal/online"
	"mcbound/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/eval.golden with current output")

// durations matches the timing columns of the report tables: they are
// the only part of the evaluation that differs between two runs.
var durations = regexp.MustCompile(` +([0-9.]+(ns|µs|ms|s|m|h))+`)

// TestEvalGolden pins the evaluation the paper's figures are read from:
// the F1, job-count and train-size columns of `mcbound eval -scale 0.02
// -seed 7` for -exp baseline, alpha-plus and features, plus one
// θ-subsampled run per mode at ten decimals. testdata/eval.golden was
// recorded at PR 21, when online.Runner still produced these numbers,
// and core.Framework under simulate.Replay reproduces it byte for byte;
// a kernel, quantiser or encoder change that moves an F1 fails here.
// Regenerate (go test ./internal/experiments -run TestEvalGolden
// -update) only for a change that is meant to move prediction quality,
// and say by how much. `make eval-golden` owns it (un-raced: the
// detector makes it many minutes of pure number crunching).
func TestEvalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve month-long online evaluations at scale 0.02")
	}
	// One core: `go test ./...` runs this package beside the wall-clock
	// chaos and overload suites, and a minute of every core would starve
	// their latency assertions. That the core count moves no model is
	// simulate's TestModelsIndependentOfCores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const seed = 7
	env, err := NewEnv(workload.EvalConfig(0.02), seed)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, report := range []func(*bytes.Buffer) error{
		func(w *bytes.Buffer) error { return ReportBaseline(w, env, seed) },
		func(w *bytes.Buffer) error { return ReportAlphaPlus(w, env, seed) },
		func(w *bytes.Buffer) error { return ReportFeatures(w, env, seed) },
	} {
		if err := report(&out); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintln(&out, "== θ-subsampling, one row per mode (rf α=15 β=1 θ=200 seed=520) ==")
	for _, mode := range []online.ThetaMode{online.ThetaLatest, online.ThetaRandom} {
		p := BestParams(core.ModelRF)
		p.Theta, p.ThetaMode, p.Seed = 200, mode, 520
		res, err := RunOnline(env, core.ModelRF, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%-8s %.10f %8d\n", mode, res.F1, res.Classified)
	}
	got := durations.ReplaceAll(out.Bytes(), []byte(" <dur>"))

	golden := filepath.Join("testdata", "eval.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("evaluation moved off %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
