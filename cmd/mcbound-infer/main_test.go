package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/store"
)

// TestRangeConcatenatesAllPages runs the -start/-end mode against a real
// API server holding more submissions than one page carries: the output
// must be every job of the range exactly once, in one document.
func TestRangeConcatenatesAllPages(t *testing.T) {
	const pending = 2300 // three pages at the server's 1000-job cap
	st := store.New()
	day := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 60; i++ { // executed history to train on
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
	queued := day.AddDate(0, 0, 20)
	for i := 0; i < pending; i++ {
		if err := st.Insert(&job.Job{
			ID: fmt.Sprintf("q%04d", i), User: "u0001", Name: "memapp", Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqBoost,
			SubmitTime: queued.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := core.New(core.DefaultConfig(), fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(context.Background(), day.AddDate(0, 0, 12)); err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int32
	api := httpapi.New(fw, st, log.New(io.Discard, "", 0), httpapi.Options{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var out bytes.Buffer
	err = run(&out, srv.URL, "", queued.Format(time.RFC3339), queued.AddDate(0, 0, 1).Format(time.RFC3339), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Items []core.Prediction `json:"items"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v", err)
	}
	if len(doc.Items) != pending || requests.Load() != 3 {
		t.Fatalf("printed %d predictions from %d requests, want %d from 3", len(doc.Items), requests.Load(), pending)
	}
	for i, p := range doc.Items {
		if want := fmt.Sprintf("q%04d", i); p.JobID != want {
			t.Fatalf("item %d is job %q, want %q (page order, no gaps, no repeats)", i, p.JobID, want)
		}
	}
}
