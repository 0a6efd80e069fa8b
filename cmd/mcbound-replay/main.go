// Command mcbound-replay replays the MCBound deployment loop (deploy →
// train → classify → cron retrain, paper §III-E) over a trace with a
// virtual clock, printing the operational timeline. It answers "what
// would the deployed framework have done over this period" without
// standing up the HTTP backend.
//
// Usage:
//
//	mcbound-replay -generate -scale 0.01 -from 2024-02-05 -to 2024-02-12
//	mcbound-replay -trace jobs.jsonl -model knn -alpha 30 -beta 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/experiments"
	"mcbound/internal/fetch"
	"mcbound/internal/simulate"
	"mcbound/internal/store"
	"mcbound/internal/workload"
)

func main() {
	var (
		trace    = flag.String("trace", "", "JSONL trace file")
		generate = flag.Bool("generate", false, "generate a synthetic trace instead")
		scale    = flag.Float64("scale", 0.01, "synthetic trace scale")
		seed     = flag.Uint64("seed", 7, "synthetic trace seed")
		model    = flag.String("model", "rf", "classification model: rf or knn")
		alpha    = flag.Int("alpha", 15, "training window in days")
		beta     = flag.Int("beta", 1, "retraining period in days")
		from     = flag.String("from", "2024-02-05", "replay start (YYYY-MM-DD)")
		to       = flag.String("to", "2024-02-12", "replay end (YYYY-MM-DD)")
	)
	flag.Parse()

	if err := run(os.Stdout, *trace, *generate, *scale, *seed, *model, *alpha, *beta, *from, *to); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-replay:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, trace string, generate bool, scale float64, seed uint64, model string, alpha, beta int, from, to string) error {
	start, err := time.Parse("2006-01-02", from)
	if err != nil {
		return fmt.Errorf("bad -from: %w", err)
	}
	end, err := time.Parse("2006-01-02", to)
	if err != nil {
		return fmt.Errorf("bad -to: %w", err)
	}

	var st *store.Store
	switch {
	case generate:
		env, err := experiments.NewEnv(workload.EvalConfig(scale), seed)
		if err != nil {
			return err
		}
		st = env.Store
	case trace != "":
		if st, err = store.LoadFile(trace); err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -trace or -generate is required")
	}

	cfg := core.DefaultConfig()
	cfg.Model = core.ModelKind(model)
	cfg.Alpha, cfg.Beta = alpha, beta
	fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "replaying %s deployment (α=%d β=%d) over [%s, %s)\n\n",
		model, alpha, beta, from, to)
	// Ctrl-C aborts the replay at the next trigger boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := simulate.Over(fw)
	r.Log = out
	tl, err := r.Run(ctx, start, end)
	if err != nil {
		return err
	}
	sum := tl.Summary()
	fmt.Fprintf(out, "\ntimeline: %d trainings, %d inference triggers, %d jobs classified\n",
		sum.Trainings, sum.Inferences, sum.Classified)
	return nil
}
