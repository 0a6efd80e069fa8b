// Module-level benchmarks: one per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each bench
// regenerates the corresponding quantity on a reduced-scale trace; the
// `mcbound characterize` and `mcbound eval` subcommands run the same
// drivers at full scale.
//
// The per-package micro-benchmarks (encode, ml/knn, ml/rf, roofline,
// workload) cover the component costs; these cover the end-to-end
// experiment paths.
package mcbound_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"testing"

	"mcbound/internal/core"
	"mcbound/internal/experiments"
	"mcbound/internal/job"
	"mcbound/internal/online"
	"mcbound/internal/workload"
)

// benchScale keeps every experiment bench in the sub-minute range on a
// single core.
const benchScale = 0.005

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

// benchEnv generates the shared evaluation trace once per bench run.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiments.NewEnv(workload.EvalConfig(benchScale), 7)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// BenchmarkTable1RidgePoint covers Table I: deriving the machine model
// and ridge point from the Fugaku specification.
func BenchmarkTable1RidgePoint(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := env.Characterizer.RidgePoint(); r < 3 {
			b.Fatal("bad ridge")
		}
	}
}

// BenchmarkFig2To5Table2Characterization covers Figs. 2–5 and Table II:
// the full §IV characterization sweep over the trace.
func BenchmarkFig2To5Table2Characterization(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Characterize(env)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Labeled == 0 {
			b.Fatal("nothing labeled")
		}
	}
}

// benchOnlineCell runs one online-evaluation configuration end to end:
// a core.Framework deployed over the trace and replayed through the test
// month (fetch → characterize → encode → train → classify → score).
func benchOnlineCell(b *testing.B, model core.ModelKind, p online.Params) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOnline(env, model, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Classified == 0 {
			b.Fatal("no test jobs")
		}
		b.ReportMetric(res.F1, "F1")
	}
}

// BenchmarkFig6KNNBestCell / BenchmarkFig6RFBestCell cover Fig. 6: one
// α×β grid cell each at the per-model best settings (the full grid is
// mcbound eval -exp alpha-beta).
func BenchmarkFig6KNNBestCell(b *testing.B) {
	benchOnlineCell(b, core.ModelKNN, online.Params{Alpha: 30, Beta: 1, Seed: 7})
}

func BenchmarkFig6RFBestCell(b *testing.B) {
	benchOnlineCell(b, core.ModelRF, online.Params{Alpha: 15, Beta: 1, Seed: 7})
}

// BenchmarkFig6LargeBeta covers the β-axis of Fig. 6 (infrequent
// retraining).
func BenchmarkFig6LargeBeta(b *testing.B) {
	benchOnlineCell(b, core.ModelRF, online.Params{Alpha: 15, Beta: 10, Seed: 7})
}

// BenchmarkFig7TrainingTime covers Fig. 7: it isolates the per-trigger
// training cost at growing α (the cell's AvgTrainTime is the figure's
// y-value; the bench wall time tracks it).
func BenchmarkFig7TrainingTime(b *testing.B) {
	for _, alpha := range []int{15, 30, 60} {
		b.Run("alpha="+strconv.Itoa(alpha), func(b *testing.B) {
			benchOnlineCell(b, core.ModelRF, online.Params{Alpha: alpha, Beta: 5, Seed: 7})
		})
	}
}

// BenchmarkFig8InferenceTime covers Fig. 8: per-job inference cost
// (encoding included) for KNN at growing α.
func BenchmarkFig8InferenceTime(b *testing.B) {
	for _, alpha := range []int{15, 30, 60} {
		b.Run("alpha="+strconv.Itoa(alpha), func(b *testing.B) {
			benchOnlineCell(b, core.ModelKNN, online.Params{Alpha: alpha, Beta: 5, Seed: 7})
		})
	}
}

// BenchmarkBaselineComparison covers §V.C.a: the (job name, #cores)
// lookup baseline under the online algorithm.
func BenchmarkBaselineComparison(b *testing.B) {
	benchOnlineCell(b, core.ModelBaseline, online.Params{Alpha: 30, Beta: 1, Seed: 7})
}

// BenchmarkAlphaPlus covers §V.C.b: the growing α⁺ window.
func BenchmarkAlphaPlusKNN(b *testing.B) {
	benchOnlineCell(b, core.ModelKNN, online.Params{Alpha: 30, Beta: 1, AlphaPlus: true, Seed: 7})
}

// BenchmarkFig9Fig10Theta covers Figs. 9–10: θ-subsampled retraining,
// random vs latest.
func BenchmarkFig9Fig10Theta(b *testing.B) {
	for _, mode := range []online.ThetaMode{online.ThetaRandom, online.ThetaLatest} {
		b.Run(mode.String(), func(b *testing.B) {
			benchOnlineCell(b, core.ModelRF, online.Params{
				Alpha: 15, Beta: 1, Theta: 200, ThetaMode: mode, Seed: 520,
			})
		})
	}
}

// BenchmarkImpactReports exercises the report writers of the §IV
// analysis (the cheap rendering layer on top of the characterization).
func BenchmarkImpactReports(b *testing.B) {
	env := benchEnv(b)
	sum, err := experiments.Characterize(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum.WriteFig2(io.Discard)
		sum.WriteFig3(io.Discard, env.Characterizer.RidgePoint())
		sum.WriteFig4(io.Discard)
		sum.WriteFig5(io.Discard)
		sum.WriteTable2(io.Discard)
	}
}

// BenchmarkDecodeJobs1k covers the request half of the classify path's
// wire codec on its own: the periodic trigger's body — the trace's first
// 1 000 jobs as submissions — through encoding/json as the handlers
// called it before, and through job.UnmarshalArray.
func BenchmarkDecodeJobs1k(b *testing.B) {
	window := make([]*job.Job, 1000)
	for i, j := range benchEnv(b).Jobs[:len(window)] {
		window[i] = &job.Job{
			ID: j.ID, User: j.User, Name: j.Name, Environment: j.Environment,
			CoresRequested: j.CoresRequested, NodesRequested: j.NodesRequested,
			FreqRequested: j.FreqRequested, SubmitTime: j.SubmitTime,
		}
	}
	body, err := json.Marshal(window)
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name   string
		decode func([]byte) ([]*job.Job, error)
	}{
		{"std", func(data []byte) (jobs []*job.Job, err error) {
			return jobs, json.NewDecoder(bytes.NewReader(data)).Decode(&jobs)
		}},
		{"codec", job.UnmarshalArray},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if jobs, err := dec.decode(body); err != nil || len(jobs) != len(window) {
					b.Fatalf("decoded %d jobs: %v", len(jobs), err)
				}
			}
		})
	}
}

// BenchmarkEncodePredictions1k covers the response half: 1 000
// predictions rendered as one JSON array, element by element through
// json.Marshal and joined as the handler did before, and appended into
// one buffer with Prediction.AppendJSON.
func BenchmarkEncodePredictions1k(b *testing.B) {
	preds := make([]core.Prediction, 1000)
	for i, j := range benchEnv(b).Jobs[:len(preds)] {
		l := job.Label(1 + i%2)
		preds[i] = core.Prediction{JobID: j.ID, Label: l, Class: l.String(), ModelVersion: 3}
	}
	for _, enc := range []struct {
		name   string
		encode func() []byte
	}{
		{"std", func() []byte {
			elems := make([][]byte, len(preds))
			for i := range preds {
				elems[i], _ = json.Marshal(&preds[i])
			}
			return append(append(append([]byte{'['}, bytes.Join(elems, []byte{','})...), ']'), '\n')
		}},
		{"append", func() []byte {
			buf := make([]byte, 0, 96*len(preds))
			buf = append(buf, '[')
			for i := range preds {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = preds[i].AppendJSON(buf)
			}
			return append(buf, ']', '\n')
		}},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := enc.encode(); len(out) < len(preds) {
					b.Fatal("short encoding")
				}
			}
		})
	}
}
