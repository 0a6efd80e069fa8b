package experiments

import (
	"fmt"

	"mcbound/internal/core"
	"mcbound/internal/online"
)

// ThetaPoint is one point of the Fig. 9/10 series.
type ThetaPoint struct {
	Model core.ModelKind
	Theta int
	Mode  online.ThetaMode
	F1    float64 // mean over seeds for random mode
	Runs  int
}

// PaperThetas are the subsample sizes of the third experiment.
var PaperThetas = []int{100, 1000, 10000, 100000}

// PaperSeeds are the five random seeds the paper trains with
// (footnote 11).
var PaperSeeds = []uint64{520, 90, 1905, 7, 22}

// ThetaSweep reproduces Figs. 9 (KNN) and 10 (RF): for the model's best
// α (β=1), retrain on a θ-subsample drawn either randomly (averaged over
// the paper's five seeds) or as the latest jobs, for each θ.
//
// thetas values larger than the window are still run — they degenerate
// to "all data", exactly as in the paper where θ=1e5 approaches the full
// window size.
func ThetaSweep(env *Env, model core.ModelKind, thetas []int) ([]ThetaPoint, error) {
	base := BestParams(model)
	var out []ThetaPoint
	for _, th := range thetas {
		// Latest: deterministic, a single run suffices.
		p := base
		p.Theta, p.ThetaMode = th, online.ThetaLatest
		res, err := RunOnline(env, model, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: θ=%d latest: %w", th, err)
		}
		out = append(out, ThetaPoint{Model: model, Theta: th, Mode: online.ThetaLatest, F1: res.F1, Runs: 1})

		// Random: average over the five paper seeds.
		var sum float64
		for _, s := range PaperSeeds {
			p := base
			p.Theta, p.ThetaMode, p.Seed = th, online.ThetaRandom, s
			res, err := RunOnline(env, model, p)
			if err != nil {
				return nil, fmt.Errorf("experiments: θ=%d random seed %d: %w", th, s, err)
			}
			sum += res.F1
		}
		out = append(out, ThetaPoint{
			Model: model, Theta: th, Mode: online.ThetaRandom,
			F1: sum / float64(len(PaperSeeds)), Runs: len(PaperSeeds),
		})
	}
	return out, nil
}

// ScaledThetas shrinks the paper's θ values by the trace scale so the
// subsample-to-window ratios stay comparable at reduced scale. Values
// below 10 are clamped.
func ScaledThetas(scaleRatio float64) []int {
	out := make([]int, len(PaperThetas))
	for i, t := range PaperThetas {
		v := int(float64(t) * scaleRatio)
		if v < 10 {
			v = 10
		}
		out[i] = v
	}
	return out
}
