package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/store"
)

// trainServer serves the API over twenty days of executed jobs, two
// applications of opposite boundness, and no model yet.
func trainServer(t *testing.T) string {
	t.Helper()
	st := store.New()
	day := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 120; i++ {
		submit := day.Add(time.Duration(i) * 4 * time.Hour)
		j := &job.Job{
			ID: fmt.Sprintf("h%03d", i), User: "u0001", Name: "memapp", Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1, FreqRequested: job.FreqBoost,
			SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(31 * time.Minute),
			Counters: job.PerfCounters{Perf2: 50e9 * 1800, Perf4: 50e9 * 1800 * job.CoresPerCMG / job.CacheLineBytes},
		}
		if i%2 == 1 {
			j.Name = "compapp"
			j.Counters = job.PerfCounters{Perf2: 300e9 * 1800, Perf4: 5e9 * 1800 * job.CoresPerCMG / job.CacheLineBytes}
		}
		if err := st.Insert(j); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := core.New(core.DefaultConfig(), fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(fw, st, log.New(io.Discard, "", 0), httpapi.Options{}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestRunPrintsTheTrainReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, trainServer(t), "2024-01-18T00:00:00Z", "", 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not one JSON document: %v: %s", err, out.Bytes())
	}
	if fitted, _ := report["fitted_jobs"].(float64); fitted <= 0 {
		t.Errorf("fitted_jobs = %v, want the window's jobs", report["fitted_jobs"])
	}
	if _, ok := report["model_version"]; !ok {
		t.Errorf("report has no model_version: %s", out.Bytes())
	}
}

func TestRunReportsABadNow(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, trainServer(t), "yesterday", "", 0, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "bad now") {
		t.Fatalf("run with -now yesterday: %v, want the server's bad now error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q for a rejected train", out.String())
	}
}
