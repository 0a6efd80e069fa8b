package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// Generator produces a synthetic job trace according to a Config. All
// randomness derives from the construction seed: the same (Config, seed)
// pair always yields byte-identical traces.
type Generator struct {
	cfg  Config
	seed uint64
}

// NewGenerator builds a Generator. The Config is copied.
func NewGenerator(cfg Config, seed uint64) *Generator {
	return &Generator{cfg: cfg, seed: seed}
}

// Days returns the number of calendar days in the generation period.
func (g *Generator) Days() int {
	return int(g.cfg.End.Sub(g.cfg.Start).Hours() / 24)
}

// Generate produces the full trace, sorted by submission time. Job IDs
// are sequential in submission order.
func (g *Generator) Generate() ([]*job.Job, error) {
	if !g.cfg.End.After(g.cfg.Start) {
		return nil, fmt.Errorf("workload: End %v not after Start %v", g.cfg.End, g.cfg.Start)
	}
	if g.cfg.JobsPerDay <= 0 {
		return nil, fmt.Errorf("workload: JobsPerDay must be positive, got %d", g.cfg.JobsPerDay)
	}
	if g.cfg.Machine.PeakGFlops <= 0 || g.cfg.Machine.PeakMemBWGBs <= 0 {
		return nil, fmt.Errorf("workload: machine peaks must be positive")
	}

	master := stats.NewRNG(g.seed)
	appRNG := master.Split()   // application creation
	dayRNG := master.Split()   // per-day arrival process
	jobRNG := master.Split()   // per-job execution sampling
	driftRNG := master.Split() // daily intensity drift

	users := make([]string, g.cfg.Users)
	for i := range users {
		users[i] = fmt.Sprintf("u%04d", i)
	}
	userPicker := stats.NewZipf(appRNG, len(users), g.cfg.UserZipfS)

	// Application population: the initial cohort plus daily births.
	days := g.Days()
	var apps []*application
	nextAppID := 0
	spawn := func(day int) *application {
		a := newApplication(&g.cfg, appRNG, nextAppID, users[userPicker.Sample()], day)
		nextAppID++
		apps = append(apps, a)
		return a
	}
	for i := 0; i < g.cfg.InitialApps; i++ {
		spawn(0)
	}
	births := make([]int, days)
	for d := range births {
		births[d] = appRNG.Poisson(g.cfg.AppBirthsPerDay)
	}

	var jobs []*job.Job
	seq := 0
	for d := 0; d < days; d++ {
		for i := 0; i < births[d]; i++ {
			spawn(d)
		}
		dayStart := g.cfg.Start.AddDate(0, 0, d)
		if g.inMaintenance(dayStart) {
			g.applyDrift(apps, d, driftRNG)
			continue
		}

		// Alive applications and their cumulative activity weights.
		alive := apps[:0:0]
		var cum []float64
		total := 0.0
		for _, a := range apps {
			if a.aliveOn(d) {
				alive = append(alive, a)
				total += a.weight
				cum = append(cum, total)
			}
		}
		if len(alive) == 0 {
			g.applyDrift(apps, d, driftRNG)
			continue
		}

		// Daily quota with a mild weekday/weekend pattern.
		rate := float64(g.cfg.JobsPerDay) * weekdayFactor(dayStart)
		quota := dayRNG.Poisson(rate)

		dayJobs := make([]*job.Job, 0, quota)
		for len(dayJobs) < quota {
			a := pickApp(alive, cum, total, dayRNG)
			batch := 1 + int(dayRNG.Exp(maxF(a.batchMean-1, 0.1)))
			if rem := quota - len(dayJobs); batch > rem {
				batch = rem
			}
			// A batch shares one submission instant and identical
			// submission features; execution statistics vary per run.
			submit := dayStart.Add(time.Duration(dayRNG.Float64() * 24 * float64(time.Hour)))
			for b := 0; b < batch; b++ {
				dayJobs = append(dayJobs, g.sampleJob(a, submit, jobRNG))
			}
		}
		sort.Slice(dayJobs, func(i, k int) bool {
			return dayJobs[i].SubmitTime.Before(dayJobs[k].SubmitTime)
		})
		for _, j := range dayJobs {
			j.ID = fmt.Sprintf("fj%09d", seq)
			seq++
		}
		jobs = append(jobs, dayJobs...)
		g.applyDrift(apps, d, driftRNG)
	}
	return jobs, nil
}

func (g *Generator) inMaintenance(t time.Time) bool {
	if g.cfg.MaintenanceStart.IsZero() || g.cfg.MaintenanceEnd.IsZero() {
		return false
	}
	return !t.Before(g.cfg.MaintenanceStart) && t.Before(g.cfg.MaintenanceEnd)
}

func (g *Generator) applyDrift(apps []*application, day int, rng *stats.RNG) {
	if g.cfg.DriftStdPerDay <= 0 && g.cfg.ShiftProbPerDay <= 0 {
		return
	}
	for _, a := range apps {
		if !a.aliveOn(day) {
			continue
		}
		if g.cfg.DriftStdPerDay > 0 {
			a.logMu += rng.Norm() * g.cfg.DriftStdPerDay
		}
		if g.cfg.ShiftProbPerDay > 0 && rng.Bool(g.cfg.ShiftProbPerDay) {
			a.shift(&g.cfg, rng)
		}
	}
}

// weekdayFactor modulates the submission rate: quieter weekends, as in
// production traces.
func weekdayFactor(t time.Time) float64 {
	switch t.Weekday() {
	case time.Saturday, time.Sunday:
		return 0.78
	default:
		return 1.09
	}
}

func pickApp(alive []*application, cum []float64, total float64, rng *stats.RNG) *application {
	u := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return alive[lo]
}

// sampleJob draws one execution of application a submitted at the given
// instant, inverting the Roofline equations to synthesize PMU counters
// consistent with the sampled operational intensity and efficiency.
func (g *Generator) sampleJob(a *application, submit time.Time, rng *stats.RNG) *job.Job {
	spec := g.cfg.Machine

	j := &job.Job{
		User:        a.user,
		Name:        a.name,
		Environment: a.env,
		SubmitTime:  submit,
	}

	// Resources: mostly the app's typical shape, occasionally scaled.
	nodes := a.nodesTypical
	switch {
	case rng.Bool(0.05):
		nodes *= 2
	case nodes > 1 && rng.Bool(0.05):
		nodes /= 2
	}
	j.NodesRequested = nodes
	j.NodesAllocated = nodes
	if a.coresTypical < a.nodesTypical*spec.CoresPerNode {
		j.CoresRequested = a.coresTypical // sub-node job
	} else {
		j.CoresRequested = nodes * spec.CoresPerNode
	}

	if rng.Bool(a.freqNormalProb) {
		j.FreqRequested = job.FreqNormal
	} else {
		j.FreqRequested = job.FreqBoost
	}

	// Timing.
	wait := time.Duration(rng.Exp(g.cfg.MeanWaitSeconds) * float64(time.Second))
	j.StartTime = submit.Add(wait)
	durSec := rng.LogNormal(a.durLogMean, a.durLogStd)
	durSec = clampF(durSec, 15, 7*86400)
	j.EndTime = j.StartTime.Add(time.Duration(durSec * float64(time.Second)))

	if rng.Bool(g.cfg.FailureFrac) {
		j.ExitCode = 1 + rng.Intn(137)
	}

	// Roofline position: sample intensity and roof efficiency, then
	// invert Eq. 1–5 into raw counters.
	op := math.Exp(a.logMu + rng.Norm()*a.logSigma)
	op = clampF(op, 1e-3, 1e4)
	eff := clampF(betaSample(rng, a.effAlpha, a.effBeta), 0.005, 0.98)
	attainable := op * spec.PeakMemBWGBs
	if attainable > spec.PeakGFlops {
		attainable = spec.PeakGFlops
	}
	perfGF := eff * attainable // GFlop/s per node
	bwGB := perfGF / op        // GByte/s per node

	nodeSec := durSec * float64(nodes)
	flops := perfGF * 1e9 * nodeSec
	bytes := bwGB * 1e9 * nodeSec

	sveFrac := 0.72 + 0.22*rng.Float64()
	j.Counters.Perf3 = sveFrac * flops / job.SVEWidthFactor
	j.Counters.Perf2 = (1 - sveFrac) * flops

	reqs := bytes * job.CoresPerCMG / job.CacheLineBytes
	readFrac := 0.52 + 0.25*rng.Float64()
	j.Counters.Perf4 = reqs * readFrac
	j.Counters.Perf5 = reqs * (1 - readFrac)

	if a.commGBs > 0 && nodes > 1 {
		comm := a.commGBs * (0.6 + 0.8*rng.Float64()) // per-node GB/s
		j.Counters.TofuBytes = comm * 1e9 * nodeSec
	}

	return j
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
