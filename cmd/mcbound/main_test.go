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
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/store"
)

// history inserts n executed jobs, one every four hours from Jan 1st:
// two applications of opposite boundness, alternating.
func history(t *testing.T, st *store.Store, n int) {
	t.Helper()
	day := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
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
}

// api serves st through a framework trained at trainAt (no model for a
// zero instant).
func api(t *testing.T, st *store.Store, trainAt time.Time) http.Handler {
	t.Helper()
	fw, err := core.New(core.DefaultConfig(), fetch.StoreBackend{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !trainAt.IsZero() {
		if _, err := fw.Train(context.Background(), trainAt); err != nil {
			t.Fatal(err)
		}
	}
	return httpapi.New(fw, st, log.New(io.Discard, "", 0), httpapi.Options{})
}

// backendURL serves the API over twenty days of executed jobs, trained at
// trainAt, and returns its URL.
func backendURL(t *testing.T, trainAt time.Time) string {
	t.Helper()
	st := store.New()
	history(t, st, 120)
	srv := httptest.NewServer(api(t, st, trainAt))
	t.Cleanup(srv.Close)
	return srv.URL
}

// mcbound runs one command line and returns its exit status and output.
func mcbound(args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = run(args, &out, &errOut)
	return status, out.String(), errOut.String()
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// One row per command line: its exit status and the first line it
// prints on stdout and on stderr (regular expressions; "" = nothing).
// Every subcommand has a row that runs it; a refused command line exits
// 2 before it generates or sends anything.
func TestCommandTable(t *testing.T) {
	server := backendURL(t, time.Date(2024, 1, 18, 0, 0, 0, 0, time.UTC))
	trace := t.TempDir() + "/jobs.jsonl"
	rows := []struct {
		args           []string
		status         int
		stdout, stderr string
	}{
		{nil, 2, ``, `^usage: mcbound <subcommand> \[flags\]$`},
		{[]string{"nope"}, 2, ``, `^mcbound: unknown subcommand "nope"$`},
		{[]string{"eval", "-bogus"}, 2, ``, `^flag provided but not defined: -bogus$`},
		{[]string{"eval", "alpha-beta"}, 2, ``, `^mcbound eval: unexpected argument "alpha-beta"$`},
		{[]string{"gen", "-h"}, 0, ``, `^Usage of mcbound gen:$`},

		{[]string{"train", "-server", server, "-now", "2024-01-18T00:00:00Z"}, 0, `^\{.*"fitted_jobs":[1-9]`, ``},
		{[]string{"train", "-server", server, "-now", "yesterday"}, 1, ``, `^mcbound train: .*bad now`},
		{[]string{"infer", "-server", server, "-job", "h001"}, 0, `^\{"job_id":"h001",.*"class":"compute-bound"`, ``},
		{[]string{"infer", "-server", server, "-start", "2024-01-01T00:00:00Z", "-end", "2024-01-01T05:00:00Z"}, 0, `^\{"items":\[\{"job_id":"h000",.*"class":"memory-bound".*\}\]\}$`, ``},
		{[]string{"infer", "-server", server}, 2, ``, `^mcbound infer: either -job or both -start and -end are required$`},

		{[]string{"gen", "-scale", "0.005", "-out", trace}, 0, ``, `^generated \d+ jobs \(2023-12-01 \.\. 2024-03-01\)$`},
		{[]string{"gen", "-scale", "0.005", "-out", "-"}, 0, `^\{"id":"fj\d+",`, `^generated \d+ jobs`},
		{[]string{"replay", "-trace", trace, "-from", "2024-02-05", "-to", "2024-02-06"}, 0, `^replaying rf deployment \(α=15 β=1\) over \[2024-02-05, 2024-02-06\)$`, ``},
		{[]string{"replay", "-trace", trace, "-scale", "0.005"}, 2, ``, `^mcbound replay: -trace excludes -scale and -seed`},
		{[]string{"replay", "-trace", trace, "-seed", "7"}, 2, ``, `^mcbound replay: -trace excludes -scale and -seed`},
		{[]string{"characterize", "-scale", "0.005", "-table", "2"}, 0, `^generating characterization trace \(scale=0\.005, seed=7\)\.\.\.$`, ``},
		{[]string{"eval", "-scale", "0.005", "-exp", "impact"}, 0, `^generating evaluation trace \(scale=0\.005, seed=7\)\.\.\.$`, ``},

		// Refused before the trace is generated: the parent generated it
		// first, then printed nothing (-table 3, -fig 9: exit 0) or
		// refused (-exp nope: exit 1).
		{[]string{"characterize", "-table", "3"}, 2, ``, `^mcbound characterize: unknown -table 3 \(want 2\)$`},
		{[]string{"characterize", "-fig", "9"}, 2, ``, `^mcbound characterize: unknown -fig 9 \(want 2-5\)$`},
		{[]string{"eval", "-exp", "nope"}, 2, ``, `^mcbound eval: unknown experiment "nope"$`},
	}
	for _, r := range rows {
		status, stdout, stderr := mcbound(r.args...)
		if status != r.status {
			t.Errorf("mcbound %q: exit %d, want %d (stderr %q)", r.args, status, r.status, firstLine(stderr))
		}
		for _, c := range []struct{ name, got, want string }{{"stdout", stdout, r.stdout}, {"stderr", stderr, r.stderr}} {
			if line := firstLine(c.got); c.want == "" && c.got != "" || c.want != "" && !regexp.MustCompile(c.want).MatchString(line) {
				t.Errorf("mcbound %q: %s starts %q, want %s", r.args, c.name, line, c.want)
			}
		}
	}
}

func TestRunPrintsTheTrainReport(t *testing.T) {
	status, out, errOut := mcbound("train", "-server", backendURL(t, time.Time{}), "-now", "2024-01-18T00:00:00Z", "-timeout", "1m")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("output is not one JSON document: %v: %s", err, out)
	}
	if fitted, _ := report["fitted_jobs"].(float64); fitted <= 0 {
		t.Errorf("fitted_jobs = %v, want the window's jobs", report["fitted_jobs"])
	}
	if _, ok := report["model_version"]; !ok {
		t.Errorf("report has no model_version: %s", out)
	}
}

func TestRunReportsABadNow(t *testing.T) {
	status, out, errOut := mcbound("train", "-server", backendURL(t, time.Time{}), "-now", "yesterday")
	if status != 1 || !strings.Contains(errOut, "bad now") {
		t.Fatalf("train -now yesterday: exit %d, %q; want 1 and the server's bad now error", status, errOut)
	}
	if out != "" {
		t.Fatalf("printed %q for a rejected train", out)
	}
}

// TestRangeConcatenatesAllPages runs the -start/-end mode against a real
// API server holding more submissions than one page carries: the output
// must be every job of the range exactly once, in one document.
func TestRangeConcatenatesAllPages(t *testing.T) {
	const pending = 2300 // three pages at the server's 1000-job cap
	st := store.New()
	history(t, st, 60)
	queued := time.Date(2024, 1, 21, 0, 0, 0, 0, time.UTC)
	for i := 0; i < pending; i++ {
		if err := st.Insert(&job.Job{
			ID: fmt.Sprintf("q%04d", i), User: "u0001", Name: "memapp", Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqBoost,
			SubmitTime: queued.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	h := api(t, st, time.Date(2024, 1, 13, 0, 0, 0, 0, time.UTC))
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	status, out, errOut := mcbound("infer", "-server", srv.URL,
		"-start", queued.Format(time.RFC3339), "-end", queued.AddDate(0, 0, 1).Format(time.RFC3339))
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	var doc struct {
		Items []core.Prediction `json:"items"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
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

// TestRunPrintsTheTimeline replays two days of a small generated trace:
// one train and one infer line a day, in calendar order, a summary line
// that adds the infer lines up, and the run's wall time and peak RSS.
func TestRunPrintsTheTimeline(t *testing.T) {
	status, out, errOut := mcbound("replay", "-scale", "0.005", "-from", "2024-02-05", "-to", "2024-02-07")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{
		`^replaying rf deployment \(α=15 β=1\) over \[2024-02-05, 2024-02-07\)$`,
		`^$`,
		`^2024-02-05 train: window \[01-21, 02-05\) [1-9]\d* jobs, \S+$`,
		`^2024-02-05 infer: (\d+) jobs classified \(\d+ memory-bound, f1=[01]\.\d{3} over \d+\)$`,
		`^2024-02-06 train: window \[01-22, 02-06\) [1-9]\d* jobs, \S+$`,
		`^2024-02-06 infer: (\d+) jobs classified \(\d+ memory-bound, f1=[01]\.\d{3} over \d+\)$`,
		`^$`,
		`^timeline: 2 trainings, 2 inference triggers, (\d+) jobs classified$`,
		`^resources: wall \d+\.\ds, peak RSS (?:\d+ MB|unknown)$`,
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), out)
	}
	var counts []int
	for i, re := range want {
		m := regexp.MustCompile(re).FindStringSubmatch(lines[i])
		if m == nil {
			t.Fatalf("line %d is %q, want %s", i+1, lines[i], re)
		}
		if len(m) == 2 {
			n, _ := strconv.Atoi(m[1])
			counts = append(counts, n)
		}
	}
	if counts[0] == 0 || counts[1] == 0 || counts[0]+counts[1] != counts[2] {
		t.Errorf("windows of %d and %d jobs, summary says %d", counts[0], counts[1], counts[2])
	}
}

func TestRunReportsABadDate(t *testing.T) {
	status, out, errOut := mcbound("replay", "-scale", "0.005", "-from", "yesterday", "-to", "2024-02-07")
	if status != 2 || !strings.Contains(errOut, "bad -from") {
		t.Fatalf("replay -from yesterday: exit %d, %q; want 2 and a bad -from error", status, errOut)
	}
	if out != "" {
		t.Errorf("printed %q before refusing the date", out)
	}
}

// Every binary and subcommand names who needs it: DESIGN.md §8's binary
// table has one row per directory under cmd/ and one per row of the
// dispatch table ("mcbound <name>"), each once.
func TestEveryBinaryHasASurfaceRow(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := bytes.Cut(doc, []byte("| Binary |"))
	if !found {
		t.Fatal("DESIGN.md has no binary table")
	}
	table, _, _ = bytes.Cut(table, []byte("\n\n"))
	var binaries, subcommands []string
	name := regexp.MustCompile("^\\| `(mcbound[a-z-]*)( [a-z]+)?` \\|")
	for _, row := range bytes.Split(table, []byte("\n")) {
		switch m := name.FindSubmatch(row); {
		case m == nil:
		case len(m[2]) > 0:
			subcommands = append(subcommands, string(m[2][1:]))
		default:
			binaries = append(binaries, string(m[1]))
		}
	}
	dirs, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	var wantBinaries, wantSubcommands []string
	for _, d := range dirs {
		if d.IsDir() {
			wantBinaries = append(wantBinaries, d.Name())
		}
	}
	for _, c := range commands {
		wantSubcommands = append(wantSubcommands, c.name)
	}
	slices.Sort(binaries)
	slices.Sort(subcommands)
	slices.Sort(wantSubcommands)
	if !slices.Equal(binaries, wantBinaries) {
		t.Errorf("DESIGN.md §8's binary rows name\n  %q\ncmd/ holds\n  %q", binaries, wantBinaries)
	}
	if !slices.Equal(subcommands, wantSubcommands) {
		t.Errorf("DESIGN.md §8's subcommand rows name\n  %q\nthe dispatch table has\n  %q", subcommands, wantSubcommands)
	}
}
