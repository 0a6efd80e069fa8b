// Command mcbound is MCBound's offline command, one subcommand per
// artifact: the two workflow scripts of Figure 1 that drive a running
// mcbound-server (A1), the deployment replay, the §IV characterization
// (A2), the §V evaluation (A3) and the synthetic trace generator.
//
//	mcbound train -server http://localhost:8080 -now 2024-02-01T00:00:00Z
//	mcbound infer -start 2024-02-01T00:00:00Z -end 2024-02-02T00:00:00Z
//	mcbound gen -scale 0.005 -out jobs.jsonl
//	mcbound replay -from 2024-02-05 -to 2024-02-12
//	mcbound characterize -scale 1 -seed 42 -table 2
//	mcbound eval -exp baseline
//
// A command line a subcommand cannot run exits 2 before anything is
// generated or sent; a failure after that exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/experiments"
	"mcbound/internal/fetch"
	"mcbound/internal/peer"
	"mcbound/internal/simulate"
	"mcbound/internal/store"
	"mcbound/internal/workload"
)

// commands is the dispatch table, in the order the usage lists it. A
// subcommand declares its flags on fs and returns what runs once they
// are parsed, writing its report to out.
var commands = []struct {
	name, summary string
	bind          func(fs *flag.FlagSet) func(out io.Writer) error
}{
	{"train", "the Training Workflow script (A1): retrain a running backend", train},
	{"infer", "the Inference Workflow script (A1): classify one job or a submission range", infer},
	{"replay", "replay the deployment loop over a trace, in process", replay},
	{"characterize", "the §IV characterization (A2): Figs. 2–5 and Table II", characterize},
	{"eval", "the §V evaluation (A3): Figs. 6–10, α⁺, θ, baseline, features, impact", eval},
	{"gen", "write the synthetic evaluation trace as JSONL", gen},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		fs := flag.NewFlagSet("mcbound "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		action := c.bind(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		var err error = usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
		if fs.NArg() == 0 {
			err = action(stdout)
		}
		if err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	if len(args) > 0 {
		fmt.Fprintf(stderr, "mcbound: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: mcbound <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-13s %s\n", c.name, c.summary)
	}
	return 2
}

// usageError is a command line a subcommand refuses before doing any
// work: exit status 2, like a flag the FlagSet rejects.
type usageError string

func (e usageError) Error() string { return string(e) }

// bindTrace declares -scale and -seed for every subcommand that
// generates the synthetic trace, with one default (the eval.golden
// trace); the subcommand picks the period the scale shrinks.
func bindTrace(fs *flag.FlagSet) (scale *float64, seed *uint64) {
	return fs.Float64("scale", 0.02, "synthetic trace scale relative to the paper's job volume"),
		fs.Uint64("seed", 7, "synthetic trace seed")
}

// bindServer declares -server and -timeout: the running mcbound-server
// train and infer reach.
func bindServer(fs *flag.FlagSet) (server *string, timeout *time.Duration) {
	return fs.String("server", "http://localhost:8080", "MCBound backend base URL"),
		fs.Duration("timeout", 10*time.Minute, "request timeout")
}

// train asks the backend to retrain its Classification Model on the last
// α days of job data and prints its report. In the paper a cronjob
// re-runs this script every β days.
func train(fs *flag.FlagSet) func(io.Writer) error {
	var (
		server, timeout = bindServer(fs)
		now             = fs.String("now", "", "training reference instant (RFC 3339); empty = the server's newest job completion, where its boot train and retrain cron train")
		index           = fs.String("index", "", "override the KNN IVF index mode for this and future trains: auto, on, off (empty = leave server config)")
		nprobe          = fs.Int("nprobe", 0, "IVF cells scanned per query by the models of this and future trains, in place of calibration (0 = leave)")
	)
	return func(out io.Writer) error {
		var report json.RawMessage
		err := peer.JSON(context.Background(), &http.Client{Timeout: *timeout},
			peer.Call{Method: http.MethodPost, URL: *server + "/v1/train"},
			map[string]any{"now": *now, "index": *index, "nprobe": *nprobe}, &report)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", report)
		return err
	}
}

// infer asks the backend to classify one job by id, or every job
// submitted in a range — read page by page (a page is at most 1000
// jobs) and printed as one {"items": [...]} document.
func infer(fs *flag.FlagSet) func(io.Writer) error {
	var (
		server, timeout = bindServer(fs)
		jobID           = fs.String("job", "", "classify a single job by id")
		start           = fs.String("start", "", "classify jobs submitted from this instant (RFC 3339)")
		end             = fs.String("end", "", "classify jobs submitted before this instant (RFC 3339)")
	)
	return func(out io.Writer) error {
		client := &http.Client{Timeout: *timeout}
		switch {
		case *jobID != "":
			payload, _, err := peer.Do(context.Background(), client,
				peer.Call{Method: http.MethodGet, URL: *server + "/v1/classify/" + url.PathEscape(*jobID)})
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(out, "%s\n", payload)
			return err
		case *start != "" && *end != "":
			items, err := classifyRange(client, *server, *start, *end)
			if err != nil {
				return err
			}
			return json.NewEncoder(out).Encode(map[string]any{"items": items})
		default:
			return usageError("either -job or both -start and -end are required")
		}
	}
}

// classifyRange walks the cursor pages of GET /v1/classify and returns
// the predictions of every job submitted in [start, end), in page order.
func classifyRange(client *http.Client, server, start, end string) ([]json.RawMessage, error) {
	first := fmt.Sprintf("%s/v1/classify?start=%s&end=%s",
		server, url.QueryEscape(start), url.QueryEscape(end))
	items := []json.RawMessage{}
	for target := first; ; {
		var page struct {
			Items      []json.RawMessage `json:"items"`
			NextCursor string            `json:"next_cursor"`
			HasMore    bool              `json:"has_more"`
		}
		// A page is at most 1000 predictions; 16 MiB is far above it.
		call := peer.Call{Method: http.MethodGet, URL: target, Limit: 16 << 20}
		if err := peer.JSON(context.Background(), client, call, nil, &page); err != nil {
			return nil, err
		}
		items = append(items, page.Items...)
		if !page.HasMore {
			return items, nil
		}
		if page.NextCursor == "" {
			return nil, fmt.Errorf("server reported more pages without a next_cursor")
		}
		target = first + "&cursor=" + url.QueryEscape(page.NextCursor)
	}
}

// replay walks the deployment loop (deploy → train → classify → cron
// retrain, §III-E) over a trace on a virtual clock, in process, and
// prints the timeline. Without -trace it generates the evaluation period.
func replay(fs *flag.FlagSet) func(io.Writer) error {
	var (
		trace       = fs.String("trace", "", "JSONL trace file (empty = generate the synthetic trace)")
		scale, seed = bindTrace(fs)
		model       = fs.String("model", "rf", "classification model: rf or knn")
		alpha       = fs.Int("alpha", 15, "training window in days")
		beta        = fs.Int("beta", 1, "retraining period in days")
		from        = fs.String("from", "2024-02-05", "replay start (YYYY-MM-DD)")
		to          = fs.String("to", "2024-02-12", "replay end (YYYY-MM-DD)")
	)
	return func(out io.Writer) error {
		began := time.Now()
		start, err := time.Parse("2006-01-02", *from)
		if err != nil {
			return usageError("bad -from: " + err.Error())
		}
		end, err := time.Parse("2006-01-02", *to)
		if err != nil {
			return usageError("bad -to: " + err.Error())
		}
		synthetic := false
		fs.Visit(func(f *flag.Flag) { synthetic = synthetic || f.Name == "scale" || f.Name == "seed" })
		if *trace != "" && synthetic {
			return usageError("-trace excludes -scale and -seed: they shape the generated trace only")
		}

		var st *store.Store
		if *trace != "" {
			st, err = store.LoadFile(*trace)
		} else {
			var env *experiments.Env
			if env, err = experiments.NewEnv(workload.EvalConfig(*scale), *seed); err == nil {
				st = env.Store
			}
		}
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.Model = core.ModelKind(*model)
		cfg.Alpha, cfg.Beta = *alpha, *beta
		fw, err := core.New(cfg, fetch.StoreBackend{Store: st})
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "replaying %s deployment (α=%d β=%d) over [%s, %s)\n\n",
			*model, *alpha, *beta, *from, *to)
		r := simulate.Over(fw)
		r.Log = out
		tl, err := r.Run(context.Background(), start, end)
		if err != nil {
			return err
		}
		sum := tl.Summary()
		fmt.Fprintf(out, "\ntimeline: %d trainings, %d inference triggers, %d jobs classified\n",
			sum.Trainings, sum.Inferences, sum.Classified)
		fmt.Fprintln(out, resources(began))
		return nil
	}
}

// resources is the last line replay and eval print: the command's wall
// time since began and its peak resident set, the two numbers a run at
// the paper's scale (make paper-scale) is recorded by.
func resources(began time.Time) string {
	return fmt.Sprintf("resources: wall %.1fs, peak RSS %s", time.Since(began).Seconds(), peakRSS())
}

// characterize renders Figures 2–5 and Table II over the synthetic full
// period (Dec 2023 – Mar 2024); -scale 1 is the paper's ≈ 2.2 M jobs.
func characterize(fs *flag.FlagSet) func(io.Writer) error {
	var (
		fig         = fs.Int("fig", 0, "render a single figure (2-5); 0 = all")
		table       = fs.Int("table", 0, "render a single table (2); 0 = all")
		scale, seed = bindTrace(fs)
	)
	return func(out io.Writer) error {
		switch {
		case *fig != 0 && (*fig < 2 || *fig > 5):
			return usageError(fmt.Sprintf("unknown -fig %d (want 2-5)", *fig))
		case *table != 0 && *table != 2:
			return usageError(fmt.Sprintf("unknown -table %d (want 2)", *table))
		}
		fmt.Fprintf(out, "generating characterization trace (scale=%g, seed=%d)...\n", *scale, *seed)
		env, err := experiments.NewEnv(workload.FullConfig(*scale), *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d jobs, %s .. %s\n", len(env.Jobs),
			env.Cfg.Start.Format("2006-01-02"), env.Cfg.End.Format("2006-01-02"))

		sum, err := experiments.Characterize(env)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "characterized: %d labeled, %d skipped (%.4f%% skip rate)\n\n",
			sum.Labeled, sum.Skipped, 100*float64(sum.Skipped)/float64(sum.Total))

		all := *fig == 0 && *table == 0
		ridge := env.Characterizer.RidgePoint()
		if all || *fig == 2 {
			sum.WriteFig2(out)
		}
		if all || *fig == 3 {
			sum.WriteFig3(out, ridge)
		}
		if all || *fig == 4 {
			sum.WriteFig4(out)
		}
		if all || *fig == 5 {
			sum.WriteFig5(out)
		}
		if all || *table == 2 {
			sum.WriteTable2(out)
		}
		return nil
	}
}

// reports are the evaluation's experiments, in the order -exp all runs them.
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

// eval runs the online prediction algorithm's evaluation over the
// synthetic evaluation period: Figures 6–10 (alpha-beta, theta), α⁺
// (alpha-plus), the baseline comparison, the §V-A feature ablation and
// the §V.C.d impact estimate.
func eval(fs *flag.FlagSet) func(io.Writer) error {
	var (
		exp         = fs.String("exp", "all", "experiment: alpha-beta, alpha-plus, theta, baseline, features, impact, all")
		scale, seed = bindTrace(fs)
	)
	return func(out io.Writer) error {
		selected := reports[:0:0]
		for _, r := range reports {
			if *exp == r.name || *exp == "all" {
				selected = append(selected, r)
			}
		}
		if len(selected) == 0 {
			return usageError(fmt.Sprintf("unknown experiment %q", *exp))
		}
		began := time.Now()
		fmt.Fprintf(out, "generating evaluation trace (scale=%g, seed=%d)...\n", *scale, *seed)
		env, err := experiments.NewEnv(workload.EvalConfig(*scale), *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d jobs, %d days\n\n", len(env.Jobs), int(env.Cfg.End.Sub(env.Cfg.Start).Hours()/24))
		for _, r := range selected {
			if err := r.run(out, env, *seed); err != nil {
				return err
			}
		}
		fmt.Fprintln(out, resources(began))
		return nil
	}
}

// gen writes the synthetic evaluation period as JSONL, the stand-in for
// F-DATA that mcbound-server -trace and mcbound replay -trace read.
func gen(fs *flag.FlagSet) func(io.Writer) error {
	var (
		path        = fs.String("out", "jobs.jsonl", "output JSONL path ('-' for stdout)")
		scale, seed = bindTrace(fs)
	)
	return func(out io.Writer) error {
		env, err := experiments.NewEnv(workload.EvalConfig(*scale), *seed)
		if err != nil {
			return err
		}
		// The flag set writes to stderr, so -out - stays pure JSONL.
		fmt.Fprintf(fs.Output(), "generated %d jobs (%s .. %s)\n", len(env.Jobs),
			env.Cfg.Start.Format("2006-01-02"), env.Cfg.End.Format("2006-01-02"))
		if *path == "-" {
			return env.Store.WriteJSONL(out)
		}
		return env.Store.SaveFile(*path)
	}
}
