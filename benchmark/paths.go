package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"mcbound/benchmark/fixture"
	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/ivf"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
	"mcbound/internal/persist"
	"mcbound/internal/store"
	"mcbound/internal/wal"
)

// The traced chains of each workload, built from a few stage makers.

// httpStage times one request from the harness's first client.
func httpStage(e *env, span, layer, key string, parent int, mk func(i int) (op, error)) stage {
	return stage{span: span, layer: layer, key: key, parent: parent, prep: func(i int) (func() error, error) {
		o, err := mk(i)
		if err != nil {
			return nil, err
		}
		return func() error {
			s := e.clients[0].do(o)
			if !s.ok() {
				return fmt.Errorf("%s %s: status %d: %v %.100s", o.method, o.url, s.status, s.err, s.body)
			}
			return nil
		}, nil
	}}
}

// handlerStage times Server.ServeHTTP into a recorder: the whole
// middleware and handler stack with no socket under it.
func handlerStage(parent int, api http.Handler, mk func(i int) (op, error)) stage {
	return stage{span: "Server.ServeHTTP", layer: "httpapi + admission + telemetry", key: "httpapi", parent: parent,
		prep: func(i int) (func() error, error) {
			o, err := mk(i)
			if err != nil {
				return nil, err
			}
			req := httptest.NewRequest(o.method, o.url, bytes.NewReader(o.body))
			req.Header.Set("X-Client-Id", "bench-trace")
			rec := httptest.NewRecorder()
			return func() error {
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("ServeHTTP %s %s: status %d: %.100s", o.method, o.url, rec.Code, rec.Body.Bytes())
				}
				return nil
			}, nil
		}}
}

// jsonStage times encoding/json decoding the request body the way the
// handler does.
func jsonStage(parent int, mk func(i int) (op, error)) stage {
	return stage{span: "json.Decoder.Decode", layer: "encoding/json (request body)", key: "json", parent: parent,
		prep: func(i int) (func() error, error) {
			o, err := mk(i)
			if err != nil {
				return nil, err
			}
			return func() error {
				var jobs []*job.Job
				return json.NewDecoder(bytes.NewReader(o.body)).Decode(&jobs)
			}, nil
		}}
}

func modelLayer(n *fixture.Node) string { return "ml/" + string(n.Kind) }

// postClassifyPath is POST /v1/classify with the jobs jobsFor(i)
// returns — called afresh for every stage, so a cold path can hand each
// entry point names it has never embedded. front is the router's URL to
// go through the front door first, "" to start at the node.
func postClassifyPath(e *env, name, what, front string, n *fixture.Node, samples int, jobsFor func(i int) []*job.Job) tracePath {
	mk := func(base string) func(i int) (op, error) {
		return func(i int) (op, error) {
			jobs := jobsFor(i)
			return op{method: http.MethodPost, url: base + "/v1/classify", body: jsonBody(jobs), jobs: len(jobs)}, nil
		}
	}
	p := tracePath{name: name, what: what, samples: samples}
	parent := -1
	if front != "" {
		p.stages = append(p.stages, httpStage(e, "POST router /v1/classify", "router (write forward)", "router", parent, mk(front)))
		parent = len(p.stages) - 1
	}
	p.stages = append(p.stages, httpStage(e, "POST node /v1/classify", "net/http + loopback socket", "socket", parent, mk(n.URL)))
	parent = len(p.stages) - 1
	p.stages = append(p.stages, handlerStage(parent, n.API, mk("")))
	handler := len(p.stages) - 1
	batch := len(jobsFor(0)) > 1
	if batch {
		p.stages = append(p.stages, jsonStage(handler, mk("")))
	}
	p.stages = append(p.stages, stage{span: "Framework.ClassifyJobs", layer: "core", key: "core", parent: handler,
		prep: func(i int) (func() error, error) {
			jobs := jobsFor(i)
			return func() error {
				_, err := n.FW.ClassifyJobs(context.Background(), jobs)
				return err
			}, nil
		}})
	coreStage := len(p.stages) - 1
	encSpan := "Encoder.EncodeJob"
	if batch {
		encSpan = "Encoder.Encode"
	}
	p.stages = append(p.stages, stage{span: encSpan, layer: "encode", key: "encode", parent: coreStage,
		prep: func(i int) (func() error, error) {
			jobs := jobsFor(i)
			return func() error {
				if batch {
					n.FW.Encoder().Encode(jobs)
				} else {
					n.FW.Encoder().EncodeJob(jobs[0])
				}
				return nil
			}, nil
		}})
	p.stages = append(p.stages, stage{span: "Classifier.Predict", layer: modelLayer(n), key: "model", parent: coreStage,
		prep: func(i int) (func() error, error) {
			x := n.FW.Encoder().Encode(jobsFor(i))
			return func() error {
				_, err := n.Model().Predict(x)
				return err
			}, nil
		}})
	if kc, ok := n.Model().(*knn.Classifier); ok && !batch && kc.VectorIndex() != nil {
		model := len(p.stages) - 1
		k := kc.Config().K
		var dst []ml.Candidate
		p.stages = append(p.stages, stage{span: "VectorIndex.Search", layer: "ml/ivf + linalg", key: "index", parent: model,
			prep: func(i int) (func() error, error) {
				q := n.FW.Encoder().EncodeJob(jobsFor(i)[0])
				return func() error {
					dst = kc.VectorIndex().Search(q, k, dst)
					return nil
				}, nil
			}})
	}
	return p
}

// byIDPath is GET /v1/classify/{id} through the router to the follower.
func byIDPath(e *env, inputs []*job.Job, samples int) tracePath {
	n := e.fx.Follower
	id := func(i int) string { return inputs[i%len(inputs)].ID }
	mk := func(base string) func(i int) (op, error) {
		return func(i int) (op, error) {
			return op{method: http.MethodGet, url: base + "/v1/classify/" + id(i), jobs: 1}, nil
		}
	}
	p := tracePath{name: "classify", what: "GET /v1/classify/{id} via router -> follower (RF)", samples: samples}
	p.stages = []stage{
		httpStage(e, "GET router /v1/classify/{id}", "router (read hop)", "router", -1, mk(e.fx.RouterURL)),
		httpStage(e, "GET node /v1/classify/{id}", "net/http + loopback socket", "socket", 0, mk(n.URL)),
		handlerStage(1, n.API, mk("")),
		{span: "Framework.ClassifyByID", layer: "core", key: "core", parent: 2, prep: func(i int) (func() error, error) {
			return func() error {
				_, err := n.FW.ClassifyByID(context.Background(), id(i))
				return err
			}, nil
		}},
		{span: "Fetcher.FetchJob", layer: "fetch + store", key: "fetch", parent: 3, prep: func(i int) (func() error, error) {
			return func() error {
				_, err := n.FW.Fetcher().FetchJob(context.Background(), id(i))
				return err
			}, nil
		}},
		{span: "Encoder.EncodeJob", layer: "encode", key: "encode", parent: 3, prep: func(i int) (func() error, error) {
			j := inputs[i%len(inputs)]
			return func() error { n.FW.Encoder().EncodeJob(j); return nil }, nil
		}},
		{span: "Classifier.Predict", layer: modelLayer(n), key: "model", parent: 3, prep: func(i int) (func() error, error) {
			x := [][]float32{n.FW.Encoder().EncodeJob(inputs[i%len(inputs)])}
			return func() error {
				_, err := n.Model().Predict(x)
				return err
			}, nil
		}},
	}
	return p
}

// hotJobs hands stage after stage the same submission of inputs[i].
func hotJobs(inputs []*job.Job) func(i int) []*job.Job {
	return func(i int) []*job.Job { return []*job.Job{fixture.Submission(inputs[i%len(inputs)])} }
}

// coldJobs hands every call a never-seen variant of inputs[i].
func coldJobs(e *env, inputs []*job.Job) func(i int) []*job.Job {
	return func(i int) []*job.Job { return e.uniqueVariants(inputs[i%len(inputs) : i%len(inputs)+1]) }
}

func (w *qsubKNN) paths(e *env) ([]tracePath, error) {
	n := e.fx.Primary()
	return []tracePath{
		postClassifyPath(e, "classify", "POST /v1/classify at the KNN node, embedding cached", "", n, maxTraced, hotJobs(w.inputs)),
		postClassifyPath(e, "secondary", "POST /v1/classify at the KNN node, never-seen name", "", n, maxTraced, coldJobs(e, w.inputs)),
	}, nil
}

func (w *qsubRouted) paths(e *env) ([]tracePath, error) {
	return []tracePath{
		byIDPath(e, w.inputs, maxTraced),
		postClassifyPath(e, "secondary", "POST /v1/classify via router -> leader (RF), never-seen name",
			e.fx.RouterURL, e.fx.Primary(), maxTraced, coldJobs(e, w.inputs)),
	}, nil
}

func (w *windowRF) paths(e *env) ([]tracePath, error) {
	n := e.fx.Primary()
	dup := func(i int) []*job.Job {
		sl := w.slices[i%len(w.slices)]
		subs := make([]*job.Job, len(sl))
		for k, j := range sl {
			subs[k] = fixture.Submission(j)
		}
		return subs
	}
	unique := func(i int) []*job.Job { return e.uniqueVariants(w.slices[i%len(w.slices)]) }
	what := fmt.Sprintf("%d-job POST /v1/classify at the RF node", len(w.slices[0]))
	return []tracePath{
		postClassifyPath(e, "classify", what+", trace's own duplication", "", n, maxTraced, dup),
		postClassifyPath(e, "secondary", what+", never-seen names", "", n, maxTraced, unique),
	}, nil
}

func (w *ingestMixed) paths(e *env) ([]tracePath, error) {
	ops, batches, err := w.take("", len(w.feed))
	if err != nil {
		return nil, err
	}
	scratchWAL, _, err := wal.Open(filepath.Join(e.fx.Opts.Dir, "trace-wal"), wal.Options{}, func([]byte) error { return nil })
	if err != nil {
		return nil, err
	}
	scratchStore := store.New()
	mk := func(base string) func(i int) (op, error) {
		return func(i int) (op, error) {
			o := ops[i%len(ops)]
			o.url = base + "/v1/jobs"
			return o, nil
		}
	}
	leader := e.fx.Primary()
	insert := tracePath{name: "secondary", what: "100-job POST /v1/jobs via router -> leader WAL (fsync always)", samples: len(ops)}
	insert.stages = []stage{
		httpStage(e, "POST router /v1/jobs", "router (write forward)", "router", -1, mk(e.fx.RouterURL)),
		httpStage(e, "POST node /v1/jobs", "net/http + loopback socket", "socket", 0, mk(leader.URL)),
		handlerStage(1, leader.API, mk("")),
		jsonStage(2, mk("")),
		{span: "Durable.Insert", layer: "store.Durable (json.Marshal, lock)", key: "durable", parent: 2,
			prep: func(i int) (func() error, error) {
				b := batches[i%len(batches)]
				return func() error { return e.fx.Durable.Insert(b...) }, nil
			}},
		{span: "WAL.AppendBatch", layer: "wal (write + fsync)", key: "wal", parent: 4,
			prep: func(i int) (func() error, error) {
				payloads := make([][]byte, len(batches[i%len(batches)]))
				for k, j := range batches[i%len(batches)] {
					payloads[k] = jsonBody(j)
				}
				return func() error { return scratchWAL.AppendBatch(payloads) }, nil
			}},
		{span: "Store.Insert", layer: "store", key: "store", parent: 4,
			prep: func(i int) (func() error, error) {
				b := batches[i%len(batches)]
				return func() error { return scratchStore.Insert(b...) }, nil
			}},
	}
	insert.after = func() error {
		if err := scratchWAL.Close(); err != nil {
			return err
		}
		_, err := waitDrained(e.fx)
		return err
	}
	return []tracePath{byIDPath(e, w.inputs, maxTraced), insert}, nil
}

func (w *retrainLive) paths(e *env) ([]tracePath, error) {
	rfNode, knnNode := e.fx.Node(core.ModelRF), e.fx.Node(core.ModelKNN)
	reg, err := persist.NewRegistry(filepath.Join(e.fx.Opts.Dir, "trace-models"))
	if err != nil {
		return nil, err
	}
	cycle := tracePath{name: "secondary", what: "retrain cycle: POST /v1/train on the KNN-IVF node, then on the RF node", samples: 2}
	cycle.stages = []stage{{span: "POST /v1/train x2", layer: "net/http + httpapi", key: "httpapi", parent: -1,
		prep: func(int) (func() error, error) {
			return func() error {
				for _, o := range w.cycle {
					if s := e.clients[0].do(o); !s.ok() {
						return fmt.Errorf("POST %s: status %d: %v %.100s", o.url, s.status, s.err, s.body)
					}
				}
				return nil
			}, nil
		}}}
	for _, n := range []*fixture.Node{knnNode, rfNode} {
		cycle.stages = append(cycle.stages, trainStages(n, reg, len(cycle.stages))...)
	}
	return []tracePath{
		postClassifyPath(e, "classify", "POST /v1/classify at the RF node, embedding cached (no retrain running)", "", rfNode, maxTraced, hotJobs(w.inputs)),
		cycle,
	}, nil
}

// trainStages is Framework.Train and the calls it makes, on node n.
// at is the index the first stage will have in the path.
func trainStages(n *fixture.Node, reg *persist.Registry, at int) []stage {
	ctx := context.Background()
	tag := " (" + string(n.Kind) + ")"
	window := func() ([]*job.Job, error) {
		return n.FW.Fetcher().FetchExecuted(ctx, fixture.TrainAt.AddDate(0, 0, -n.FW.Config().Alpha), fixture.TrainAt)
	}
	labelled := func() ([]*job.Job, []job.Label, error) {
		jobs, err := window()
		if err != nil {
			return nil, nil, err
		}
		n.FW.Characterizer().GenerateLabels(jobs)
		var out []*job.Job
		var y []job.Label
		for _, j := range jobs {
			if j.TrueLabel != job.Unknown {
				out, y = append(out, j), append(y, j.TrueLabel)
			}
		}
		return out, y, nil
	}
	fresh := func() ml.Classifier {
		if n.Kind == core.ModelKNN {
			return knn.New(n.FW.Config().KNN)
		}
		return rf.New(n.FW.Config().RF)
	}
	stages := []stage{
		{span: "Framework.Train" + tag, layer: "core", key: "core", parent: 0, prep: func(int) (func() error, error) {
			return func() error {
				_, err := n.FW.Train(ctx, fixture.TrainAt)
				return err
			}, nil
		}},
		{span: "Fetcher.FetchExecuted" + tag, layer: "fetch + store", key: "fetch", parent: at, prep: func(int) (func() error, error) {
			return func() error {
				_, err := window()
				return err
			}, nil
		}},
		{span: "GenerateLabels" + tag, layer: "roofline", key: "roofline", parent: at, prep: func(int) (func() error, error) {
			jobs, err := window()
			if err != nil {
				return nil, err
			}
			return func() error { n.FW.Characterizer().GenerateLabels(jobs); return nil }, nil
		}},
		{span: "Encoder.Encode" + tag, layer: "encode", key: "encode", parent: at, prep: func(int) (func() error, error) {
			jobs, _, err := labelled()
			if err != nil {
				return nil, err
			}
			return func() error { n.FW.Encoder().Encode(jobs); return nil }, nil
		}},
		{span: "Classifier.Train" + tag, layer: modelLayer(n), key: "model", parent: at, prep: func(int) (func() error, error) {
			jobs, y, err := labelled()
			if err != nil {
				return nil, err
			}
			x := n.FW.Encoder().Encode(jobs)
			c := fresh()
			return func() error { return c.Train(x, y) }, nil
		}},
	}
	if kc, ok := n.Model().(*knn.Classifier); ok && kc.VectorIndex() != nil {
		stages = append(stages, stage{span: "ivf.Build" + tag, layer: "ml/ivf", key: "index", parent: at + 4,
			prep: func(int) (func() error, error) {
				data, dim := kc.Matrix()
				return func() error {
					_, err := ivf.Build(data, dim, ivfConfig(kc))
					return err
				}, nil
			}})
	}
	stages = append(stages, stage{span: "Registry.Save" + tag, layer: "persist", key: "persist", parent: at,
		prep: func(int) (func() error, error) {
			m, ok := n.Model().(persist.Model)
			if !ok {
				return nil, fmt.Errorf("%s model is not persistable", n.Kind)
			}
			return func() error {
				_, err := reg.Save("trace-"+string(n.Kind), m)
				return err
			}, nil
		}})
	return stages
}

// ivfConfig is the index configuration kc's Train hands to ivf.Build.
func ivfConfig(kc *knn.Classifier) ivf.Config {
	ic := kc.Config().Index
	return ivf.Config{NClusters: ic.NClusters, NProbe: ic.NProbe, Rerank: ic.Rerank, Seed: ic.Seed}
}
