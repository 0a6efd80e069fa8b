package experiments

import (
	"fmt"
	"io"

	"mcbound/internal/core"
	"mcbound/internal/online"
)

// ReportAlphaBeta runs and renders the first experiment: the α×β F1
// grids of Fig. 6 for KNN and RF, plus the β=1 timing rows of Figs. 7–8.
func ReportAlphaBeta(w io.Writer, env *Env, seed uint64) error {
	fmt.Fprintln(w, "== Experiment 1: α×β sweep (Fig. 6; timing rows = Figs. 7–8) ==")
	for _, model := range []core.ModelKind{core.ModelKNN, core.ModelRF} {
		cells, err := AlphaBetaGrid(env, model, PaperAlphas, PaperBetas, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- %s: F1-macro --\n", model)
		WriteAlphaBetaTable(w, cells, PaperBetas)

		fmt.Fprintf(w, "-- %s: β=1 row — avg daily training time (Fig. 7), avg inference/job (Fig. 8) --\n", model)
		fmt.Fprintf(w, "%8s %14s %16s %12s\n", "α", "train time", "infer/job", "train size")
		for _, c := range cells {
			if c.Beta != 1 {
				continue
			}
			fmt.Fprintf(w, "%8d %14s %16s %12.0f\n", c.Alpha, c.TrainTime, c.InferPerJob, c.TrainSize)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// ReportBaseline runs the §V.C.a comparison: the (job name, #cores)
// lookup baseline against KNN and RF at their best settings.
func ReportBaseline(w io.Writer, env *Env, seed uint64) error {
	fmt.Fprintln(w, "== Experiment: baseline comparison (§V.C.a; paper: 0.83 vs 0.90) ==")
	fmt.Fprintf(w, "%-10s %-12s %8s %12s %16s\n", "model", "params", "F1", "test jobs", "infer/job")
	for _, model := range []core.ModelKind{core.ModelBaseline, core.ModelKNN, core.ModelRF} {
		p := BestParams(model)
		p.Seed = seed
		res, err := RunOnline(env, model, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-12s %8.4f %12d %16s\n",
			model, p, res.F1, res.Classified, res.MeanClassifyPerJob)
	}
	fmt.Fprintln(w)
	return nil
}

// ReportAlphaPlus runs the second experiment (§V.C.b): the growing α⁺
// window against the best fixed α, for both models, comparing F1 and the
// training/inference cost growth.
func ReportAlphaPlus(w io.Writer, env *Env, seed uint64) error {
	fmt.Fprintln(w, "== Experiment 2: α⁺ growing window (§V.C.b) ==")
	fmt.Fprintf(w, "%-6s %-12s %8s %14s %16s %12s\n", "model", "window", "F1", "train time", "infer/job", "train size")
	for _, model := range []core.ModelKind{core.ModelKNN, core.ModelRF} {
		best := BestParams(model)
		best.Seed = seed
		fixed, err := RunOnline(env, model, best)
		if err != nil {
			return err
		}
		plus := best
		plus.AlphaPlus = true
		grown, err := RunOnline(env, model, plus)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %-12s %8.4f %14s %16s %12.0f\n",
			model, fmt.Sprintf("α=%d", best.Alpha), fixed.F1, fixed.MeanTrainTime, fixed.MeanClassifyPerJob, fixed.MeanTrainedOn)
		fmt.Fprintf(w, "%-6s %-12s %8.4f %14s %16s %12.0f\n",
			model, "α⁺", grown.F1, grown.MeanTrainTime, grown.MeanClassifyPerJob, grown.MeanTrainedOn)
	}
	fmt.Fprintln(w)
	return nil
}

// ReportTheta runs the third experiment (Figs. 9–10): θ-subsampling with
// random vs latest selection. θ values are scaled with the trace so the
// subsample-to-window ratio matches the paper's.
func ReportTheta(w io.Writer, env *Env, seed uint64) error {
	_ = seed // θ random runs use the paper's five fixed seeds
	ratio := float64(env.Cfg.JobsPerDay) / 18500.0
	thetas := ScaledThetas(ratio)
	fmt.Fprintf(w, "== Experiment 3: θ subsampling (Figs. 9–10), θ scaled by %.3g ==\n", ratio)
	for _, model := range []core.ModelKind{core.ModelKNN, core.ModelRF} {
		pts, err := ThetaSweep(env, model, thetas)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- %s (best α=%d, β=1) --\n", model, BestParams(model).Alpha)
		fmt.Fprintf(w, "%10s %10s %10s\n", "θ", "latest", "random")
		for i := 0; i < len(pts); i += 2 {
			latest, random := pts[i], pts[i+1]
			if latest.Mode != online.ThetaLatest {
				latest, random = random, latest
			}
			fmt.Fprintf(w, "%10d %10.4f %10.4f\n", latest.Theta, latest.F1, random.F1)
		}
	}
	fmt.Fprintln(w)
	return nil
}
