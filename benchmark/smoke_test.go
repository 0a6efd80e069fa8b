package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload, gated or not, runs end to end at s1 with a handful of
// ops, untraced and traced: no number is asserted, only that the harness
// still fits the internal/... APIs it calls, that every declared metric
// is reported, and that the in-run correctness checks pass.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range append(append([]workloadSpec(nil), workloads...), ungated...) {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var log bytes.Buffer
				rec, err := runWorkload(runConfig{
					Workload: w.Name, Seed: 5, Seconds: 1, Trace: traced, Tiny: true,
					Dir: dir, Spans: filepath.Join(dir, "spans.jsonl"), Log: &log,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", rec.Correct, rec.Attempted, rec.Failed, log.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(rec.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not reported", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s reported in %q, declared in %q", m.Name, got.Unit, m.Unit)
					}
				}
				if traced {
					spans, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
					if err != nil || !bytes.Contains(spans, []byte(`"span":"Server.ServeHTTP"`)) {
						t.Errorf("span file missing or without a Server.ServeHTTP span: %v", err)
					}
					if !strings.Contains(log.String(), "budget: classify path") || !strings.Contains(log.String(), "budget: secondary path") {
						t.Errorf("traced run printed no budget tables")
					}
				}
			})
		}
	}
}

// BENCHMARK.json at the repository root is what -print-contract prints,
// and it stays inside the limits of the benchmark contract.
func TestContractMatchesTables(t *testing.T) {
	var buf bytes.Buffer
	if err := writeContract(&buf); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err == nil {
		if !bytes.Equal(onDisk, buf.Bytes()) {
			t.Errorf("BENCHMARK.json differs from -print-contract; regenerate it:\n  (cd benchmark && go run . -print-contract) > BENCHMARK.json")
		}
	} else {
		t.Logf("no ../BENCHMARK.json to compare (%v)", err)
	}
	var c contract
	if err := json.Unmarshal(buf.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64<<10 {
		t.Errorf("contract is %d bytes, limit 64 KiB", buf.Len())
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, s string) {
		ok := s != "" && len(s) <= 64
		for i, r := range s {
			alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
			if !alnum && (i == 0 || !strings.ContainsRune("_.-", r)) {
				ok = false
			}
		}
		if !ok || seen[s] {
			t.Errorf("%s name %q is malformed or used twice", kind, s)
		}
		seen[s] = true
	}
	unit := func(m, u string) {
		if u == "" || len(u) > 16 || strings.Trim(u, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("metric %s: unit %q is malformed", m, u)
		}
	}
	for _, w := range c.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		name("metric", m.Name)
		unit(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range c.PerLayer {
		name("metric", m.Name)
		unit(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
}
