package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/fetch"
	"mcbound/internal/job"
)

// The §V.C.d impact analysis: what semi-automatic frequency selection
// driven by MCBound's predictions would save, with the per-job effects
// of the Fugaku power-management study the paper cites (Kodama et al.,
// CLUSTER 2020) applied to the job records of the trace.

// ImpactFactors encode the paper's cited per-job effects of frequency
// selection on Fugaku.
type ImpactFactors struct {
	// BoostSpeedup is the execution-time reduction of a compute-bound
	// job run in boost instead of normal mode (paper: 10%).
	BoostSpeedup float64
	// NormalPowerSaving is the power reduction of a memory-bound job
	// run in normal instead of boost mode (paper: 15%).
	NormalPowerSaving float64
	// AvgPowerW is the average per-job power draw used for the estimate
	// (paper: 5000 W for the memory-bound boost population).
	AvgPowerW float64
}

// PaperImpactFactors returns the constants of §V.C.d.
func PaperImpactFactors() ImpactFactors {
	return ImpactFactors{BoostSpeedup: 0.10, NormalPowerSaving: 0.15, AvgPowerW: 5000}
}

// ImpactEstimate aggregates the system-level savings of running every
// job of a population of (job, predicted class) pairs in the frequency
// mode its class implies — normal for memory-bound (same performance,
// lower power), boost for compute-bound (shorter runs) — the §V.C.d
// back-of-envelope, computed from actual job records instead of round
// numbers.
type ImpactEstimate struct {
	// Memory-bound jobs observed in boost mode → normal mode.
	MemBoostJobs     int
	PowerSavedWAvg   float64 // per-job average power saving, W
	PowerSavedWTotal float64 // summed across jobs, W
	EnergySavedJ     float64 // total energy saved, J
	// Compute-bound jobs observed in normal mode → boost mode.
	CompNormalJobs  int
	TimeSavedPerJob time.Duration // average per-job time saving
	TimeSavedTotal  time.Duration // summed node-independent compute time saved
}

// EstimateImpact applies the factors to every job whose predicted class
// disagrees with its requested frequency mode. Jobs' real durations are
// used; power is the model's AvgPowerW (per-job power metering is not
// part of the trace, exactly as in the paper's estimate).
func EstimateImpact(jobs []*job.Job, predicted []job.Label, f ImpactFactors) (ImpactEstimate, error) {
	var est ImpactEstimate
	if len(jobs) != len(predicted) {
		return est, fmt.Errorf("experiments: %d jobs vs %d predictions", len(jobs), len(predicted))
	}
	var energy float64
	var timeSaved time.Duration
	for i, j := range jobs {
		switch {
		case predicted[i] == job.MemoryBound && j.FreqRequested == job.FreqBoost:
			est.MemBoostJobs++
			saveW := f.AvgPowerW * f.NormalPowerSaving
			est.PowerSavedWTotal += saveW
			energy += saveW * j.Duration().Seconds()
		case predicted[i] == job.ComputeBound && j.FreqRequested == job.FreqNormal:
			est.CompNormalJobs++
			timeSaved += time.Duration(float64(j.Duration()) * f.BoostSpeedup)
		}
	}
	est.EnergySavedJ = energy
	est.TimeSavedTotal = timeSaved
	if est.MemBoostJobs > 0 {
		est.PowerSavedWAvg = est.PowerSavedWTotal / float64(est.MemBoostJobs)
	}
	if est.CompNormalJobs > 0 {
		est.TimeSavedPerJob = timeSaved / time.Duration(est.CompNormalJobs)
	}
	return est, nil
}

// testMonthImpact produces the §V.C.d estimate the way a deployment
// would: the framework's default model (RF) is trained at the start of
// the test month, the whole month is classified before execution, and
// the paper's factors are applied to every job whose requested frequency
// disagrees with its predicted class. It also returns the month's job
// count.
func testMonthImpact(env *Env) (ImpactEstimate, int, error) {
	ctx := context.Background()
	fw, err := core.New(core.DefaultConfig(), fetch.StoreBackend{Store: env.Store})
	if err != nil {
		return ImpactEstimate{}, 0, err
	}
	if _, err := fw.Train(ctx, TestPeriodStart); err != nil {
		return ImpactEstimate{}, 0, err
	}
	month, err := fw.Fetcher().FetchSubmitted(ctx, TestPeriodStart, TestPeriodEnd)
	if err != nil {
		return ImpactEstimate{}, 0, err
	}
	preds, err := fw.ClassifyJobs(ctx, month)
	if err != nil {
		return ImpactEstimate{}, 0, err
	}
	labels := make([]job.Label, len(preds))
	for i, p := range preds {
		labels[i] = p.Label
	}
	est, err := EstimateImpact(month, labels, PaperImpactFactors())
	return est, len(month), err
}

// ReportImpact renders the §V.C.d impact estimate over the test month.
func ReportImpact(w io.Writer, env *Env, seed uint64) error {
	_ = seed // the trace carries the seed; the model is the deployment default
	est, jobs, err := testMonthImpact(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Impact of semi-automatic frequency selection (§V.C.d) ==")
	fmt.Fprintf(w, "jobs classified before execution (test month): %d\n", jobs)
	fmt.Fprintf(w, "  memory-bound jobs found in boost mode:   %d\n", est.MemBoostJobs)
	fmt.Fprintf(w, "    -> switch to normal mode: save %.0f W/job avg, %.1f MW total, %.2f GJ energy\n",
		est.PowerSavedWAvg, est.PowerSavedWTotal/1e6, est.EnergySavedJ/1e9)
	fmt.Fprintf(w, "  compute-bound jobs found in normal mode: %d\n", est.CompNormalJobs)
	fmt.Fprintf(w, "    -> switch to boost mode: save %v/job avg, %.0f h of compute total\n",
		est.TimeSavedPerJob.Round(time.Second), est.TimeSavedTotal.Hours())
	fmt.Fprintln(w, "(paper, full scale: ~750k mem-bound boost jobs -> 450 MW / 14 GJ;")
	fmt.Fprintln(w, " ~330k comp-bound normal jobs -> ~20 min/job, >1,700 h of compute)")
	fmt.Fprintln(w)
	return nil
}
