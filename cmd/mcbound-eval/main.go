// Command mcbound-eval reproduces the online prediction algorithm
// evaluation of the paper (artifact A3): Figures 6–10, the α⁺ experiment
// and the baseline comparison, over the synthetic Fugaku-like trace.
//
// Usage:
//
//	mcbound-eval -exp alpha-beta            # Fig. 6 (+ Figs. 7–8 timing)
//	mcbound-eval -exp alpha-plus            # §V.C.b
//	mcbound-eval -exp theta                 # Figs. 9–10
//	mcbound-eval -exp baseline              # §V.C.a comparison
//	mcbound-eval -exp features              # §V-A feature ablation
//	mcbound-eval -exp impact                # §V.C.d impact estimate
//	mcbound-eval -exp all
//
// The -scale flag shrinks the trace (1 = the paper's ≈25K jobs/day).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mcbound/internal/experiments"
	"mcbound/internal/workload"
)

// reports lists the experiments in the order -exp all runs them.
var reports = []struct {
	name string
	run  func(io.Writer, *experiments.Env, uint64) error
}{
	{"alpha-beta", experiments.ReportAlphaBeta},
	{"baseline", experiments.ReportBaseline},
	{"features", experiments.ReportFeatures},
	{"alpha-plus", experiments.ReportAlphaPlus},
	{"theta", experiments.ReportTheta},
	{"impact", experiments.ReportImpact},
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: alpha-beta, alpha-plus, theta, baseline, features, impact, all")
		scale = flag.Float64("scale", 0.02, "trace scale relative to the paper's job volume")
		seed  = flag.Uint64("seed", 7, "master RNG seed")
	)
	flag.Parse()

	if err := run(*exp, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-eval:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, seed uint64) error {
	fmt.Printf("generating evaluation trace (scale=%g, seed=%d)...\n", scale, seed)
	env, err := experiments.NewEnv(workload.EvalConfig(scale), seed)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d jobs, %d days\n\n", len(env.Jobs), int(env.Cfg.End.Sub(env.Cfg.Start).Hours()/24))

	ran := false
	for _, r := range reports {
		if exp == r.name || exp == "all" {
			if err := r.run(os.Stdout, env, seed); err != nil {
				return err
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
