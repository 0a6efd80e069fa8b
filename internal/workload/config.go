// Package workload generates a synthetic Fugaku-like job trace with the
// statistical structure MCBound's evaluation depends on (DESIGN.md §5):
// users own applications with characteristic operational-intensity
// distributions, jobs arrive in batches of near-identical instances,
// applications are born and retired over weeks and drift slowly, a
// fraction of job names is generic and shared across users, frequency
// selection follows the Table II marginals, and a maintenance window in
// early February empties the trace.
//
// The generator replaces the proprietary F-DATA trace: it produces raw
// job records (submission features + PMU counters), never labels — labels
// are always derived downstream by the roofline.Characterizer, exactly as
// in the paper.
package workload

import (
	"math"
	"time"

	"mcbound/internal/job"
)

// Config holds every knob of the generative model. DefaultConfig returns
// values calibrated so the characterization analysis reproduces the
// paper's §IV statistics at full scale.
type Config struct {
	// Machine is the system the jobs run on; its ridge point anchors the
	// per-application intensity distributions.
	Machine job.MachineSpec

	// Start and End bound the submission period (jobs submit in
	// [Start, End)).
	Start, End time.Time

	// JobsPerDay is the mean number of submitted jobs per active day.
	JobsPerDay int

	// MaintenanceStart/End define a window with no submissions at all
	// (the early-February scheduled shutdown in Fig. 2). Zero values
	// disable it.
	MaintenanceStart, MaintenanceEnd time.Time

	// Users is the number of distinct users; their activity is
	// Zipf-distributed with exponent UserZipfS.
	Users     int
	UserZipfS float64

	// InitialApps is the application population alive at Start;
	// AppBirthsPerDay keeps the population roughly stable against
	// AppLifetimeDays (exponential lifetime mean).
	InitialApps     int
	AppBirthsPerDay float64
	AppLifetimeDays float64

	// MemoryBoundFrac is the probability that a new application's latent
	// class is memory-bound (the paper observes ≈77.5% of jobs).
	MemoryBoundFrac float64

	// StraddlerFrac is the fraction of applications whose intensity
	// distribution sits close to the ridge point, producing mixed labels
	// across their own jobs. This is the irreducible class noise that
	// caps the attainable F1 near the paper's 0.9.
	StraddlerFrac float64

	// StraddleOffsetStd / StraddleSigma control a straddler's log-mean
	// offset from the ridge and its per-job log-spread; ClearOffsetMin /
	// ClearOffsetExpMean / ClearSigma the same for clear-cut apps.
	StraddleOffsetStd  float64
	StraddleSigma      float64
	ClearOffsetMin     float64
	ClearOffsetExpMean float64
	ClearSigma         float64

	// DriftStdPerDay is the daily standard deviation of the random walk
	// on an application's log-intensity mean: the workload drift that
	// makes "older" training data stale (α and α+ effects).
	DriftStdPerDay float64

	// ShiftProbPerDay models discrete behaviour changes: with this
	// daily probability an application re-draws its intensity profile
	// (class included) — a code update or a new input deck. Data
	// recorded before a shift misleads models that never forget, which
	// is what degrades the α+ setting and long KNN windows.
	ShiftProbPerDay float64

	// GenericNameFrac is the fraction of applications that use a job
	// name drawn from a small shared pool (run.sh, a.out, ...) instead
	// of a unique one, degrading the (job name, #cores) baseline.
	GenericNameFrac float64

	// FreqNormalGivenMem / FreqNormalGivenComp are P(2.0 GHz | class),
	// matching Table II (0.542 and 0.692).
	FreqNormalGivenMem  float64
	FreqNormalGivenComp float64

	// BatchMean is the mean size of a submission batch of identical
	// jobs (geometric).
	BatchMean float64

	// Duration lognormal parameters (seconds).
	DurLogMean, DurLogStd float64

	// MeanWaitSeconds is the mean scheduling wait (submit→start),
	// reported as ≈3 minutes in the paper.
	MeanWaitSeconds float64

	// EffAlpha/EffBeta parameterize the Beta-distributed roof
	// efficiency: how close a job's performance gets to its attainable
	// roof. Low mean ⇒ most jobs far from the roofline (Fig. 3), with a
	// small WellTunedFrac of apps near 1.
	EffAlpha, EffBeta float64
	WellTunedFrac     float64

	// FailureFrac is the probability of a nonzero exit code.
	FailureFrac float64
}

// DefaultConfig returns the full-scale configuration: ~2.2 million jobs
// between December 1st, 2023 and March 31st, 2024 on Fugaku.
func DefaultConfig() Config {
	return Config{
		Machine:             job.FugakuSpec(),
		Start:               date(2023, 12, 1),
		End:                 date(2024, 4, 1),
		JobsPerDay:          18500,
		MaintenanceStart:    date(2024, 2, 2),
		MaintenanceEnd:      date(2024, 2, 5),
		Users:               450,
		UserZipfS:           1.05,
		InitialApps:         2600,
		AppBirthsPerDay:     55,
		AppLifetimeDays:     45,
		MemoryBoundFrac:     0.79,
		StraddlerFrac:       0.115,
		StraddleOffsetStd:   0.45,
		StraddleSigma:       0.45,
		ClearOffsetMin:      0.90,
		ClearOffsetExpMean:  1.30,
		ClearSigma:          0.30,
		DriftStdPerDay:      0.03,
		ShiftProbPerDay:     0.004,
		GenericNameFrac:     0.24,
		FreqNormalGivenMem:  0.542,
		FreqNormalGivenComp: 0.692,
		BatchMean:           6,
		DurLogMean:          7.2, // median ≈ 22 min
		DurLogStd:           1.4,
		MeanWaitSeconds:     180,
		EffAlpha:            1.2,
		EffBeta:             6.0,
		WellTunedFrac:       0.05,
		FailureFrac:         0.02,
	}
}

// FullConfig returns the full characterization period of DefaultConfig
// with the job rate scaled by the given factor and the populations left
// at full size: scale=1 is DefaultConfig itself.
func FullConfig(scale float64) Config {
	cfg := DefaultConfig()
	cfg.JobsPerDay = max(1, int(float64(cfg.JobsPerDay)*scale))
	return cfg
}

// EvalConfig returns the configuration of the online-evaluation period
// (December 1st, 2023 through February 29th, 2024), scaled by the given
// factor: scale=1 matches the paper's ≈25 K jobs/day in the test month.
// Smaller scales keep the same per-day structure with fewer jobs.
func EvalConfig(scale float64) Config {
	cfg := FullConfig(scale)
	cfg.End = date(2024, 3, 1)
	// Shrink the populations slower than the job count: users by √scale,
	// applications by scale^0.75. This keeps the per-app submission
	// frequency high enough that an α-day window still observes nearly
	// every live application (as on the real system), while preserving
	// the churn share and the generic-name collision density.
	appScale := scaleRoot(scale) * scaleRoot(scaleRoot(scale))
	cfg.Users = clampMin(int(float64(cfg.Users)*scaleRoot(scale)), 20)
	cfg.InitialApps = clampMin(int(float64(cfg.InitialApps)*appScale), 40)
	cfg.AppBirthsPerDay = maxF(cfg.AppBirthsPerDay*appScale, 0.5)
	return cfg
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func clampMin(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// scaleRoot keeps the user population shrinking slower than the job count
// so per-user behaviour stays realistic at small scales.
func scaleRoot(s float64) float64 {
	if s >= 1 {
		return 1
	}
	if s <= 0 {
		return 0
	}
	return math.Sqrt(s)
}
