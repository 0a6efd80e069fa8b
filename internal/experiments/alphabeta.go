package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/online"
	"mcbound/internal/simulate"
)

// RunOnline executes one online-algorithm run for the given model and
// parameters over the paper's test month.
func RunOnline(env *Env, model core.ModelKind, p online.Params) (simulate.Summary, error) {
	cfg := core.DefaultConfig()
	cfg.Model, cfg.Params = model, p
	return replayTestMonth(env, cfg)
}

// replayTestMonth deploys a Framework over the trace as a site would and
// replays the test month through it, so every figure is measured on the
// code the server runs. The Framework (encoder cache included) is fresh
// per run so runtime measurements are not polluted by warm caches.
func replayTestMonth(env *Env, cfg core.Config) (simulate.Summary, error) {
	cfg.RF.Seed = cfg.Seed + 1
	fw, err := core.New(cfg, fetch.StoreBackend{Store: env.Store})
	if err != nil {
		return simulate.Summary{}, err
	}
	tl, err := simulate.Over(fw).Run(context.Background(), TestPeriodStart, TestPeriodEnd)
	if err != nil {
		return simulate.Summary{}, err
	}
	return tl.Summary(), nil
}

// AlphaBetaCell is one point of the Fig. 6 grids.
type AlphaBetaCell struct {
	Model       core.ModelKind
	Alpha, Beta int
	F1          float64
	TrainTime   time.Duration // Fig. 7 series (β=1 rows)
	InferPerJob time.Duration // Fig. 8 series (β=1 rows)
	TrainSize   float64
}

// AlphaBetaGrid sweeps α ∈ alphas × β ∈ betas for one model (Fig. 6) and
// reports per-cell timing (Figs. 7–8 read the β=1 row).
func AlphaBetaGrid(env *Env, model core.ModelKind, alphas, betas []int, seed uint64) ([]AlphaBetaCell, error) {
	var out []AlphaBetaCell
	for _, a := range alphas {
		for _, b := range betas {
			res, err := RunOnline(env, model, online.Params{Alpha: a, Beta: b, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s α=%d β=%d: %w", model, a, b, err)
			}
			out = append(out, AlphaBetaCell{
				Model:       model,
				Alpha:       a,
				Beta:        b,
				F1:          res.F1,
				TrainTime:   res.MeanTrainTime,
				InferPerJob: res.MeanClassifyPerJob,
				TrainSize:   res.MeanTrainedOn,
			})
		}
	}
	return out, nil
}

// WriteAlphaBetaTable renders a Fig. 6-style F1 grid, one row per α, one
// column per β.
func WriteAlphaBetaTable(w io.Writer, cells []AlphaBetaCell, betas []int) {
	fmt.Fprintf(w, "%8s", "α \\ β")
	for _, b := range betas {
		fmt.Fprintf(w, " %8d", b)
	}
	fmt.Fprintln(w)
	var lastAlpha = -1
	for _, c := range cells {
		if c.Alpha != lastAlpha {
			if lastAlpha != -1 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%8d", c.Alpha)
			lastAlpha = c.Alpha
		}
		fmt.Fprintf(w, " %8.4f", c.F1)
	}
	fmt.Fprintln(w)
}

// Defaults of the paper's first experiment.
var (
	PaperAlphas = []int{15, 30, 45, 60}
	PaperBetas  = []int{1, 2, 5, 10}
)

// BestParams returns the per-model best settings the paper converges on.
func BestParams(m core.ModelKind) online.Params {
	switch m {
	case core.ModelRF:
		return online.Params{Alpha: 15, Beta: 1}
	default: // KNN and the baseline both use α=30, β=1
		return online.Params{Alpha: 30, Beta: 1}
	}
}
