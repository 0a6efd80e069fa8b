package simulate

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
	"mcbound/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenStore is the fixed-seed trace for the golden replay: the two
// clean apps of replayStore plus "mixapp", whose Roofline ground truth
// flips with the parity of the submission day while its feature string
// stays constant. No classifier can separate the flip from features
// alone, so the per-window F1 varies below 1.000 and the golden file
// actually exercises the quality series, not just the schedule.
func goldenStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	for day := 0; day < 40; day++ {
		apps := []struct {
			name         string
			perfGF, bwGB float64
		}{
			{"memapp", 60, 60},
			{"compapp", 500, 10},
			{"mixapp", 60, 60}, // even day: memory-bound
		}
		if day%2 == 1 {
			apps[2].perfGF, apps[2].bwGB = 500, 10 // odd day: compute-bound
		}
		for i := 0; i < 4; i++ {
			for _, app := range apps {
				submit := start.AddDate(0, 0, day).Add(time.Duration(i) * time.Hour)
				durSec := 1200.0
				err := st.Insert(&job.Job{
					ID:             fmt.Sprintf("g%05d", seq),
					User:           "u0001",
					Name:           app.name,
					Environment:    "gcc/12.2",
					CoresRequested: 48,
					NodesRequested: 1,
					NodesAllocated: 1,
					FreqRequested:  job.FreqNormal,
					SubmitTime:     submit,
					StartTime:      submit.Add(time.Minute),
					EndTime:        submit.Add(21 * time.Minute),
					Counters: job.PerfCounters{
						Perf2: app.perfGF * 1e9 * durSec,
						Perf4: app.bwGB * 1e9 * durSec * job.CoresPerCMG / job.CacheLineBytes,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				seq++
			}
		}
	}
	return st
}

// TestReplayGolden replays a fixed-seed trace end to end through the
// deployed Framework facade and compares the full rendered timeline —
// train triggers, model versions, window volumes and per-day F1 to
// three decimals — against testdata/replay.golden. Regenerate with
//
//	go test ./internal/simulate -run TestReplayGolden -update
//
// after an intentional behavior change, and review the diff like code.
func TestReplayGolden(t *testing.T) {
	st := goldenStore(t)
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Beta = 10, 2
	cfg.ModelDir = t.TempDir() // fresh registry: versions are 1,2,3,...
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	r := Over(fw)
	start := time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
	end := time.Date(2024, 1, 29, 0, 0, 0, 0, time.UTC)
	tl, err := r.Run(context.Background(), start, end)
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := tl.WriteText(&got); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "replay.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	n := len(gotLines)
	if len(wantLines) > n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
		}
	}
	t.Errorf("timeline diverged from %s (re-run with -update if intended)", golden)
}
