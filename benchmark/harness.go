package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcbound/benchmark/stats"
	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/metrics"
	"mcbound/internal/router"
)

// stretch is how many consecutive requests of a single-request phase
// are measured together: 25 of them are 2 ms (routed RF) to 8 ms (KNN)
// of both clients. A phase of 1 000-job requests, 20 ms each, takes
// every request as a stretch of its own.
const stretch = 25

// numClients is the closed-loop client count of every multi-client
// phase: fixed (not derived from the host) so op counts repeat, and
// stamped on every result.
const numClients = 2

// op is one request of a pass.
type op struct {
	method string
	url    string
	body   []byte
	jobs   int // jobs the request carries (1 for single classify)
}

// sample is what the client saw of one op: when it was sent, how long
// the reply took, and how many jobs the op carried.
type sample struct {
	at      time.Time
	dur     time.Duration
	jobs    int
	status  int
	body    []byte
	backend string
	stale   bool
	err     error
}

func (s sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// client is one caller: a scheduler hook, cron trigger or ingest job
// holding one keep-alive connection and waiting for each reply.
type client struct {
	id string
	hc *http.Client
	tr *http.Transport
}

func newClient(id string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{id: id, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do issues o and times it from before the request is written until the
// whole reply has been read.
func (c *client) do(o op) sample {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, o.url, rd)
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("X-Client-Id", c.id)
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return sample{at: t0, dur: time.Since(t0), jobs: o.jobs, err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return sample{
		at: t0, dur: time.Since(t0), jobs: o.jobs, status: resp.StatusCode, body: body, err: err,
		backend: resp.Header.Get(router.BackendHeader),
		stale:   resp.Header.Get(router.StalenessHeader) != "",
	}
}

// runClients gives client c the ops at index c, c+n, c+2n, ... and runs
// all clients at once, each closed-loop. It returns the samples in op
// order and the wall time from the common start to the last reply.
func runClients(clients []*client, ops []op) ([]sample, time.Duration) {
	out := make([]sample, len(ops))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := c; i < len(ops); i += len(clients) {
				out[i] = clients[c].do(ops[i])
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return out, time.Since(t0)
}

// runBeside runs the fixed ops of client a while client b keeps issuing
// next(i) until a is done. It returns both sample sets and a's wall time.
func runBeside(a *client, aOps []op, b *client, next func(i int) op) (aS, bS []sample, wall time.Duration) {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			bS = append(bS, b.do(next(i)))
		}
	}()
	t0 := time.Now()
	aS = make([]sample, len(aOps))
	for i, o := range aOps {
		aS[i] = a.do(o)
	}
	wall = time.Since(t0)
	done.Store(true)
	wg.Wait()
	return aS, bS, wall
}

// phase accumulates one timed section over its passes. Its latency and
// rate are taken per stretch: a few consecutive requests, together a few
// milliseconds long, short enough that many stretches of a run fall
// entirely inside a spell in which the host left the program alone.
type phase struct {
	name       string
	attempted  int
	failed     int
	firstErr   string
	perPass    int       // samples in the last pass
	perStretch int       // samples in a stretch
	p50us      []float64 // per stretch
	perSec     []float64 // per stretch
	passP50us  []float64 // per pass: its lowest stretch median
	tailus     []float64 // per pass
	tailPct    float64
	jobs       int // jobs carried by the successful ops of all passes
	// work is what the layers' own counters say the phase caused; fromN2
	// and stale count router replies by the headers they carried.
	work   counters
	routed int
	fromN2 int
	stale  int
}

// addPass folds one pass in. The successful samples, in the order they
// were sent, are cut into stretches of n (a pass shorter than that is
// one stretch); each stretch gives a median latency and the jobs
// completed per second between its first request and its last reply.
// The tail percentile is taken over the whole pass. A shed (429/503),
// any other non-2xx reply and a transport error are failures.
func (p *phase) addPass(samples []sample, n int) {
	good := make([]sample, 0, len(samples))
	for _, s := range samples {
		p.attempted++
		if !s.ok() {
			p.failed++
			if p.firstErr == "" {
				p.firstErr = fmt.Sprintf("status %d err %v body %.120s", s.status, s.err, s.body)
			}
			continue
		}
		good = append(good, s)
		p.jobs += s.jobs
		if s.backend != "" {
			p.routed++
			if s.backend == "n2" {
				p.fromN2++
			}
		}
		if s.stale {
			p.stale++
		}
	}
	p.perPass, p.perStretch = len(good), min(n, len(good))
	if len(good) == 0 {
		return
	}
	sort.SliceStable(good, func(a, b int) bool { return good[a].at.Before(good[b].at) })
	lat := make([]float64, len(good))
	for i, s := range good {
		lat[i] = float64(s.dur.Nanoseconds()) / 1e3
	}
	first := len(p.p50us)
	for lo := 0; lo+p.perStretch <= len(good); lo += p.perStretch {
		st := good[lo : lo+p.perStretch]
		p.p50us = append(p.p50us, stats.Percentile(stats.Sorted(lat[lo:lo+p.perStretch]), 50))
		jobs, end := 0, st[0].at
		for _, s := range st {
			jobs += s.jobs
			if t := s.at.Add(s.dur); t.After(end) {
				end = t
			}
		}
		if wall := end.Sub(st[0].at); wall > 0 {
			p.perSec = append(p.perSec, float64(jobs)/wall.Seconds())
		}
	}
	p.passP50us = append(p.passP50us, stats.Best(p.p50us[first:], true))
	// A pass too small for any tail percentile reports its slowest sample.
	if p.tailPct = stats.TailPercentile(len(lat)); p.tailPct == 0 {
		p.tailPct = 100
	}
	p.tailus = append(p.tailus, stats.Percentile(stats.Sorted(lat), p.tailPct))
}

func (p *phase) p50() stats.Summary  { return stats.Summarize(p.p50us) }
func (p *phase) tail() stats.Summary { return stats.Summarize(p.tailus) }
func (p *phase) rate() stats.Summary { return stats.Summarize(p.perSec) }

// describe prints the phase's counts and the quartiles behind its medians.
func (p *phase) describe(w io.Writer) {
	fmt.Fprintf(w, "  phase %-22s attempted=%d succeeded=%d failed=%d passes=%d samples/pass=%d stretches=%d samples/stretch=%d\n",
		p.name, p.attempted, p.attempted-p.failed, p.failed, len(p.tailus), p.perPass, len(p.p50us), p.perStretch)
	if p.firstErr != "" {
		fmt.Fprintf(w, "    first failure: %s\n", p.firstErr)
	}
	q := func(s stats.Summary) string {
		return fmt.Sprintf("%.4g [q1 %.4g, q3 %.4g]", s.Median, s.Q1, s.Q3)
	}
	fmt.Fprintf(w, "    p50_us %s best %.4g\n", q(p.p50()), stats.Best(p.p50us, true))
	fmt.Fprintf(w, "    p%g_us %s\n", p.tailPct, q(p.tail()))
	fmt.Fprintf(w, "    jobs_per_s %s best %.4g\n", q(p.rate()), stats.Best(p.perSec, false))
}

// predictions decodes a classify reply: one object from the by-id
// route, an array from the POST route.
func predictions(body []byte) ([]core.Prediction, error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var p core.Prediction
		if err := json.Unmarshal(trimmed, &p); err != nil {
			return nil, err
		}
		return []core.Prediction{p}, nil
	}
	var ps []core.Prediction
	err := json.Unmarshal(trimmed, &ps)
	return ps, err
}

// checkPredictions compares every prediction in the successful samples
// with want (job ID → class from Framework.ClassifyJobs on the same
// job). got, when non-nil, collects job ID → class for scoring.
func checkPredictions(samples []sample, want, got map[string]string) error {
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		ps, err := predictions(s.body)
		if err != nil {
			return fmt.Errorf("undecodable classify reply %.80q: %w", s.body, err)
		}
		if len(ps) == 0 {
			return fmt.Errorf("classify reply %.80q carries no prediction", s.body)
		}
		for _, p := range ps {
			w, ok := want[p.JobID]
			if !ok {
				return fmt.Errorf("prediction for job %q that was never sent", p.JobID)
			}
			if p.Class != w {
				return fmt.Errorf("job %s: HTTP says %q, Framework.ClassifyJobs says %q", p.JobID, p.Class, w)
			}
			if p.Degraded {
				return fmt.Errorf("job %s served by the degraded fallback", p.JobID)
			}
			if got != nil {
				got[p.JobID] = p.Class
			}
		}
	}
	return nil
}

// f1Macro scores predicted classes (job ID → class) against the
// roofline labels of held, over the held-out jobs that were predicted.
func f1Macro(held []*job.Job, predicted map[string]string) (float64, int, error) {
	var actual, pred []job.Label
	for _, j := range held {
		c, ok := predicted[j.ID]
		if !ok {
			continue
		}
		l, err := job.ParseLabel(c)
		if err != nil {
			return 0, 0, err
		}
		actual, pred = append(actual, j.TrueLabel), append(pred, l)
	}
	if len(actual) == 0 {
		return 0, 0, fmt.Errorf("no held-out job was predicted")
	}
	f1, err := metrics.F1MacroOf(actual, pred)
	return f1, len(actual), err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
