package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/benchmark/fixture"
	"mcbound/benchmark/stats"
	"mcbound/internal/admission"
	"mcbound/internal/core"
	"mcbound/internal/encode"
	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/ml/ivf"
	"mcbound/internal/ml/knn"
	"mcbound/internal/persist"
	"mcbound/internal/roofline"
	"mcbound/internal/store"
	"mcbound/internal/wal"
)

// The layer lab: every layer timed from outside, by calls into its
// public functions, on the traced run's fixture — the workload's own
// trace, both model kinds, and the leader/follower/router cluster,
// whichever of them the workload itself uses.

// labOptions widens a workload's fixture to what the lab needs.
func labOptions(o fixture.Options) fixture.Options {
	other := core.ModelKNN
	if o.Models[0] == core.ModelKNN {
		other = core.ModelRF
	}
	if len(o.Models) == 1 {
		o.Models = append(o.Models, other)
	}
	o.Cluster = true
	// The lab times the index on every workload, so the KNN node builds
	// one even where the auto threshold would not.
	o.IndexOn = true
	return o
}

const labPasses = 5

// perOp times n calls of f per pass and returns the median over the
// passes of the mean nanoseconds per call.
func (l *lab) perOp(n int, f func(i int)) float64 {
	n = max(1, n/l.divisor)
	per := make([]float64, labPasses)
	for p := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[p] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return stats.Summarize(per).Median
}

// eachOp times n calls of f one by one and returns the sorted
// microseconds.
func (l *lab) eachOp(n int, f func(i int)) []float64 {
	n = max(1, n/l.divisor)
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		f(i)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return stats.Sorted(us)
}

// lab is one traced run's layer measurements.
type lab struct {
	e   *env
	out map[string]float64
	err error
	// divisor cuts the op counts for the smoke test, which checks that
	// every call still runs, not what it costs.
	divisor int
}

func (l *lab) set(name string, v float64) { l.out[name] = v }

func (l *lab) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// runLab measures every layer and returns metric name → value.
func runLab(e *env) (map[string]float64, error) {
	l := &lab{e: e, out: map[string]float64{}, divisor: 1}
	fx := e.fx
	if e.cfg.Tiny {
		l.divisor = 50
	}
	l.set("workload.generate_jobs_per_s", float64(len(fx.Trace.Jobs))/fx.Trace.GenerateDuration.Seconds())
	for _, part := range []struct {
		name string
		run  func()
	}{
		{"store+fetch", l.storeAndFetch}, {"wal+durable", l.walAndDurable}, {"roofline+encode", l.rooflineAndEncode},
		{"linalg", l.linalg}, {"ml", l.models}, {"core+httpapi", l.coreAndHTTP}, {"router+repl", l.cluster},
	} {
		t0 := time.Now()
		part.run()
		fmt.Fprintf(e.cfg.Log, "  lab %-16s %.2fs\n", part.name, time.Since(t0).Seconds())
	}
	return l.out, l.err
}

func (l *lab) held(i int) *job.Job { h := l.e.fx.Trace.Held; return h[i%len(h)] }

func (l *lab) storeAndFetch() {
	fx := l.e.fx
	jobs := fx.Trace.Jobs
	if len(jobs) > 5000 {
		jobs = jobs[:5000]
	}
	l.set("store.insert_ns_per_job", l.perOp(1, func(int) {
		st := store.New()
		for at := 0; at < len(jobs); at += 100 {
			l.fail(st.Insert(jobs[at:min(at+100, len(jobs))]...))
		}
	})/float64(len(jobs)))

	st := fx.Primary().Store
	l.set("store.get_ns", l.perOp(20000, func(i int) {
		_, err := st.Get(l.held(i).ID)
		l.fail(err)
	}))

	// Get while another goroutine inserts: the lock readers share with
	// the ingest path. On a scratch store, so the fixture's stays clean.
	scratch := store.New()
	l.fail(scratch.Insert(jobs...))
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			c := *jobs[i%len(jobs)]
			c.ID = fmt.Sprintf("w%d", i)
			l.fail(scratch.Insert(&c))
		}
	}()
	l.set("store.get_under_insert_ns", l.perOp(20000, func(i int) {
		_, err := scratch.Get(jobs[i%len(jobs)].ID)
		l.fail(err)
	}))
	stop.Store(true)
	<-done

	alpha := fx.Primary().FW.Config().Alpha
	l.set("store.executed_between_ms", l.perOp(3, func(int) {
		st.ExecutedBetween(fixture.TrainAt.AddDate(0, 0, -alpha), fixture.TrainAt)
	})/1e6)

	f := fx.Primary().FW.Fetcher()
	l.set("fetch.fetch_job_ns", l.perOp(20000, func(i int) {
		_, err := f.FetchJob(context.Background(), l.held(i).ID)
		l.fail(err)
	}))
}

func (l *lab) walAndDurable() {
	dir := l.e.fx.Opts.Dir
	batch := l.e.fx.Trace.Jobs[:100]
	payloads := make([][]byte, len(batch))
	for i, j := range batch {
		payloads[i] = jsonBody(j)
	}
	appendUS := func(name string, policy wal.Policy) float64 {
		w, _, err := wal.Open(filepath.Join(dir, "lab-wal-"+name), wal.Options{Policy: policy}, func([]byte) error { return nil })
		if err != nil {
			l.fail(err)
			return 0
		}
		us := l.perOp(20, func(int) { l.fail(w.AppendBatch(payloads)) }) / 1e3
		l.fail(w.Close())
		return us
	}
	always, never := appendUS("always", wal.FsyncAlways), appendUS("never", wal.FsyncNever)
	l.set("wal.append_batch100_always_us", always)
	l.set("wal.append_batch100_never_us", never)
	if always > 0 {
		l.set("wal.fsync_share", 1-never/always)
	}
	d, err := store.OpenDurable(filepath.Join(dir, "lab-durable"), nil, store.DurableOptions{})
	if err != nil {
		l.fail(err)
		return
	}
	l.set("durable.insert_batch100_us", l.perOp(20, func(int) { l.fail(d.Insert(batch...)) })/1e3)
	l.fail(d.Close())
}

func (l *lab) rooflineAndEncode() {
	fx := l.e.fx
	jobs := make([]*job.Job, 0, 5000)
	for _, j := range fx.Trace.Jobs {
		if len(jobs) == cap(jobs) {
			break
		}
		c := *j
		jobs = append(jobs, &c)
	}
	char := roofline.NewCharacterizer(roofline.ModelFor(fx.Primary().FW.Config().Machine))
	l.set("roofline.label_ns_per_job", l.perOp(1, func(int) { char.GenerateLabels(jobs) })/float64(len(jobs)))

	cold := encode.NewEncoder(nil, nil)
	cold.SetCacheCapacity(0)
	l.set("encode.embed_cold_ns", l.perOp(2000, func(i int) { cold.EncodeJob(l.held(i)) }))
	l.set("encode.cold_allocs", testing.AllocsPerRun(200, func() { cold.EncodeJob(l.held(0)) }))
	hot := encode.NewEncoder(nil, nil)
	for i := range fx.Trace.Held {
		hot.EncodeJob(l.held(i))
	}
	l.set("encode.embed_hot_ns", l.perOp(20000, func(i int) { hot.EncodeJob(l.held(i)) }))
	l.set("encode.bulk_cold_jobs_per_s", float64(len(jobs))/(l.perOp(1, func(int) { cold.Encode(jobs) })/1e9))
}

func (l *lab) linalg() {
	a, b := make([]float32, encode.Dim), make([]float32, encode.Dim)
	for i := range a {
		a[i], b[i] = float32(i%17)/17, float32(i%13)/13
	}
	qa, qb := make([]int8, encode.Dim), make([]int8, encode.Dim)
	linalg.QuantizeInt8(qa, a, 1.0/127)
	linalg.QuantizeInt8(qb, b, 1.0/127)
	var sinkI int64
	var sinkF float64
	l.set("linalg.sqdist_int8_ns", l.perOp(200000, func(int) { sinkI += linalg.SqDistInt8(qa, qb) }))
	l.set("linalg.sqeuclidean_ns", l.perOp(200000, func(int) { sinkF += linalg.SqEuclidean(a, b) }))
	if sinkI == 0 && sinkF == 0 {
		l.fail(fmt.Errorf("linalg kernels returned zero distances for distinct vectors"))
	}
}

// recallFloor fails the run when the index's recall@k against the exact
// scan, measured on held-out vectors, drops below it. The index
// calibrates nprobe for 0.95 on a sample of the rows it indexes; on
// vectors it has never seen, twenty seeds at s10 measured 0.937–0.990
// and ten at s30 0.968–0.992. A floor at 0.95 would fail one seed in
// ten on calibration noise, and the workloads must not fail; 0.90 only
// trips on an index that is broken. Any smaller loss shows in
// ivf.recall_at_k itself and in f1_macro.
const (
	recallFloor   = 0.90
	recallQueries = 512
)

func (l *lab) models() {
	fx := l.e.fx
	knnNode, rfNode := fx.Node(core.ModelKNN), fx.Node(core.ModelRF)
	l.set("knn.train_s", fx.TrainReports[core.ModelKNN].TrainDuration.Seconds())
	l.set("rf.train_s", fx.TrainReports[core.ModelRF].TrainDuration.Seconds())
	l.set("core.train_knn_cold_s", fx.TrainWall[core.ModelKNN].Seconds())
	l.set("core.train_rf_cold_s", fx.TrainWall[core.ModelRF].Seconds())
	primary := fx.Primary().Kind
	l.set("core.train_overhead_s", (fx.TrainWall[primary] - fx.TrainReports[primary].TrainDuration).Seconds())

	queries := make([][]float32, min(1000, len(fx.Trace.Held)))
	for i := range queries {
		queries[i] = knnNode.FW.Encoder().EncodeJob(fixture.Submission(l.held(i)))
	}
	one := make([][]float32, 1)

	kc, ok := knnNode.Model().(*knn.Classifier)
	if !ok {
		l.fail(fmt.Errorf("KNN node serves %T", knnNode.Model()))
		return
	}
	l.set("knn.groups_per_row", float64(kc.Groups())/float64(kc.TrainSize()))
	pred := l.eachOp(len(queries), func(i int) {
		one[0] = queries[i]
		_, err := kc.Predict(one)
		l.fail(err)
	})
	l.set("knn.predict_p50_us", stats.Percentile(pred, 50))

	if ix, ok := kc.VectorIndex().(*ivf.Index); ok {
		k := kc.Config().K
		var dst []ml.Candidate
		before, probes, reranked := ix.Stats(), ivf.TotalProbes(), ivf.TotalReranked()
		search := l.eachOp(len(queries), func(i int) { dst = ix.Search(queries[i], k, dst) })
		after := ix.Stats()
		n := float64(len(queries))
		l.set("ivf.search_p50_us", stats.Percentile(search, 50))
		l.set("ivf.search_p99_us", stats.Percentile(search, 99))
		l.set("ivf.probes_per_query", float64(ivf.TotalProbes()-probes)/n)
		l.set("ivf.reranked_per_query", float64(ivf.TotalReranked()-reranked)/n)
		// Computed, not measured: int8 code rows the scan visited × their
		// width in bytes.
		l.set("linalg.int8_bytes_per_query", float64(after.Scanned-before.Scanned)/n*float64(ix.Dim()))
		l.set("ivf.clusters", float64(ix.Clusters()))
		l.set("ivf.nprobe", float64(ix.NProbe()))

		data, dim := kc.Matrix()
		var hits, total int
		for _, q := range queries[:min(recallQueries, len(queries))] {
			dst = ix.Search(q, k, dst)
			got := map[int]bool{}
			for _, c := range dst {
				got[c.ID] = true
			}
			for _, id := range exactTopK(data, dim, q, k) {
				total++
				if got[id] {
					hits++
				}
			}
		}
		recall := float64(hits) / float64(total)
		l.set("ivf.recall_at_k", recall)
		if recall < recallFloor {
			l.fail(fmt.Errorf("ivf.recall_at_k %.4f below the %.2f floor", recall, recallFloor))
		}
		t0 := time.Now()
		_, err := ivf.Build(data, dim, ivfConfig(kc))
		l.fail(err)
		l.set("ivf.build_s", time.Since(t0).Seconds())
	} else {
		// Below the auto threshold the KNN node runs the exact scan; the
		// index metrics then have nothing to measure.
		l.fail(fmt.Errorf("KNN node built no IVF index (%d groups); the lab needs one", kc.Groups()))
	}

	rfc := rfNode.Model()
	rfq := make([][]float32, len(queries))
	for i := range rfq {
		rfq[i] = rfNode.FW.Encoder().EncodeJob(fixture.Submission(l.held(i)))
	}
	l.set("rf.predict_single_ns", l.perOp(5000, func(i int) {
		one[0] = rfq[i%len(rfq)]
		_, err := rfc.Predict(one)
		l.fail(err)
	}))
	batch := make([][]float32, 1000)
	for i := range batch {
		batch[i] = rfq[i%len(rfq)]
	}
	l.set("rf.predict_batch1k_ms", l.perOp(5, func(int) {
		_, err := rfc.Predict(batch)
		l.fail(err)
	})/1e6)

	reg, err := persist.NewRegistry(filepath.Join(fx.Opts.Dir, "lab-models"))
	if err != nil {
		l.fail(err)
		return
	}
	for name, m := range map[string]ml.Classifier{"persist.save_knn_ms": kc, "persist.save_rf_ms": rfc} {
		pm, ok := m.(persist.Model)
		if !ok {
			l.fail(fmt.Errorf("%s: %T is not persistable", name, m))
			continue
		}
		l.set(name, l.perOp(1, func(int) {
			_, err := reg.Save(m.Name(), pm)
			l.fail(err)
		})/1e6)
	}
}

// exactTopK is the reference scan: the k nearest rows under exact
// squared Euclidean distance, ties to the lower id.
func exactTopK(data []float32, dim int, q []float32, k int) []int {
	type nd struct {
		d  float64
		id int
	}
	top := make([]nd, 0, k+1)
	for i := 0; i*dim < len(data); i++ {
		d := linalg.SqEuclidean(q, data[i*dim:(i+1)*dim])
		if len(top) == k && d >= top[k-1].d {
			continue
		}
		pos := len(top)
		top = append(top, nd{})
		for pos > 0 && top[pos-1].d > d {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = nd{d: d, id: i}
		if len(top) > k {
			top = top[:k]
		}
	}
	out := make([]int, len(top))
	for i, t := range top {
		out[i] = t.id
	}
	return out
}

func (l *lab) coreAndHTTP() {
	fx := l.e.fx
	ctx := context.Background()
	knnNode, rfNode, primary := fx.Node(core.ModelKNN), fx.Node(core.ModelRF), fx.Primary()
	single := func(i int) []*job.Job { return []*job.Job{fixture.Submission(l.held(i))} }
	classify := func(n *fixture.Node, jobs []*job.Job) {
		_, err := n.FW.ClassifyJobs(ctx, jobs)
		l.fail(err)
	}
	for i := range fx.Trace.Held { // warm both encoders
		classify(rfNode, single(i))
	}
	l.set("core.classify_single_knn_us", l.perOp(200, func(i int) { classify(knnNode, single(i)) })/1e3)
	coreRF := l.perOp(2000, func(i int) { classify(rfNode, single(i)) }) / 1e3
	l.set("core.classify_single_rf_us", coreRF)
	first := single(0)
	l.set("core.classify_single_allocs", testing.AllocsPerRun(200, func() { classify(primary, first) }))

	size := min(1000, len(fx.Trace.Held))
	dup := make([]*job.Job, size)
	for i := range dup {
		dup[i] = fixture.Submission(l.held(i))
	}
	classify(rfNode, dup)
	l.set("core.classify_batch1k_dup_ms", l.perOp(5, func(int) { classify(rfNode, dup) })/1e6)
	l.set("core.classify_batch1k_unique_ms", l.perOp(1, func(int) { classify(rfNode, l.e.uniqueVariants(dup)) })/1e6)
	prev := runtime.GOMAXPROCS(1)
	l.set("core.classify_batch1k_serial_ms", l.perOp(5, func(int) { classify(rfNode, dup) })/1e6)
	runtime.GOMAXPROCS(prev)

	adm := admission.NewController(admission.DefaultConfig())
	l.set("admission.admit_release_ns", l.perOp(100000, func(int) {
		tk, err := adm.Admit(ctx, admission.Interactive, "lab")
		if err != nil {
			l.fail(err)
			return
		}
		tk.Release()
	}))

	// The handlers into a recorder: the API stack with no socket.
	timeStage := func(s stage, n int) float64 {
		return l.perOp(n, func(i int) {
			call, err := s.prep(i)
			if err == nil {
				err = call()
			}
			l.fail(err)
		})
	}
	postSingle := func(i int) (op, error) {
		return op{method: http.MethodPost, url: "/v1/classify", body: jsonBody(single(i))}, nil
	}
	handlerRF := timeStage(handlerStage(-1, rfNode.API, postSingle), 2000) / 1e3
	l.set("httpapi.classify_handler_us", handlerRF)
	l.set("httpapi.shell_us", handlerRF-coreRF)
	byID := func(base string) func(i int) (op, error) {
		return func(i int) (op, error) {
			return op{method: http.MethodGet, url: base + "/v1/classify/" + l.held(i).ID}, nil
		}
	}
	l.set("httpapi.classify_by_id_handler_us", timeStage(handlerStage(-1, rfNode.API, byID("")), 2000)/1e3)
	l.set("httpapi.classify_batch1k_handler_ms", timeStage(handlerStage(-1, rfNode.API, func(int) (op, error) {
		return op{method: http.MethodPost, url: "/v1/classify", body: jsonBody(dup)}, nil
	}), 5)/1e6)
	body0 := jsonBody(first)
	rec0 := handlerStage(-1, rfNode.API, func(int) (op, error) {
		return op{method: http.MethodPost, url: "/v1/classify", body: body0}, nil
	})
	l.set("httpapi.classify_handler_allocs", testing.AllocsPerRun(200, func() {
		call, err := rec0.prep(0)
		if err == nil {
			err = call()
		}
		l.fail(err)
	}))
	direct := timeStage(httpStage(l.e, "", "", "", -1, func(i int) (op, error) {
		o, err := postSingle(i)
		o.url = rfNode.URL + o.url
		return o, err
	}), 1000) / 1e3
	l.set("httpapi.socket_us", direct-handlerRF)
}

// lagSamples is how many single inserts are timed to visibility on the
// follower; each waits out about half a 250 ms poll.
const lagSamples = 8

// cluster measures the front door and replication on the live fleet:
// the router's hop over a direct read and a direct write, the insert
// handler, and how long an acked insert takes to show on the follower.
func (l *lab) cluster() {
	fx := l.e.fx
	leader, follower := fx.Primary(), fx.Follower
	get := func(base string) func(i int) op {
		return func(i int) op {
			return op{method: http.MethodGet, url: base + "/v1/classify/" + l.held(i).ID}
		}
	}
	p50 := func(n int, mk func(i int) op) float64 {
		return stats.Percentile(l.eachOp(n, func(i int) {
			o := mk(i)
			if s := l.e.clients[0].do(o); !s.ok() {
				l.fail(fmt.Errorf("%s %s: status %d %v", o.method, o.url, s.status, s.err))
			}
		}), 50)
	}
	for i := 0; i < 1000/l.divisor; i++ { // warm the follower's encoder for the inputs below
		l.e.clients[0].do(get(follower.URL)(i))
	}
	l.set("router.hop_p50_us", p50(1000, get(fx.RouterURL))-p50(1000, get(follower.URL)))

	// Writes: fresh 100-job batches per request, IDs the trace never used.
	next := 0
	batchBody := func() []byte {
		batch := make([]*job.Job, 100)
		for i := range batch {
			c := *fx.Trace.Jobs[(next+i)%len(fx.Trace.Jobs)]
			c.ID = fmt.Sprintf("lab-%d", next+i)
			batch[i] = &c
		}
		next += len(batch)
		return jsonBody(batch)
	}
	post := func(base string) func(i int) op {
		return func(int) op { return op{method: http.MethodPost, url: base + "/v1/jobs", body: batchBody()} }
	}
	l.set("router.write_hop_us", p50(30, post(fx.RouterURL))-p50(30, post(leader.URL)))
	l.set("httpapi.insert_batch100_handler_us", l.perOp(20, func(i int) {
		call, err := handlerStage(-1, leader.API, func(int) (op, error) {
			return op{method: http.MethodPost, url: "/v1/jobs", body: batchBody()}, nil
		}).prep(i)
		if err == nil {
			err = call()
		}
		l.fail(err)
	})/1e3)
	t0 := time.Now()
	_, err := waitDrained(fx)
	l.fail(err)
	l.set("repl.drain_ms", float64(time.Since(t0).Microseconds())/1e3)

	// Single acked inserts, each timed until the follower can read it.
	var lags []float64
	for i := 0; i < max(1, lagSamples/l.divisor); i++ {
		c := *fx.Trace.Jobs[i]
		c.ID = fmt.Sprintf("lag-%d", i)
		t0 := time.Now()
		if s := l.e.clients[0].do(op{method: http.MethodPost, url: fx.RouterURL + "/v1/jobs", body: jsonBody([]*job.Job{&c})}); !s.ok() {
			l.fail(fmt.Errorf("lag insert: status %d %v", s.status, s.err))
			return
		}
		for {
			if _, err := follower.Store.Get(c.ID); err == nil {
				break
			}
			if time.Since(t0) > 10*time.Second {
				l.fail(fmt.Errorf("insert %s not visible on the follower after 10s", c.ID))
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		lags = append(lags, float64(time.Since(t0).Microseconds())/1e3)
	}
	sorted := stats.Sorted(lags)
	l.set("repl.follower_lag_p50_ms", stats.Percentile(sorted, 50))
	l.set("repl.follower_lag_max_ms", sorted[len(sorted)-1])
}
