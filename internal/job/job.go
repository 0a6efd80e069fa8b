// Package job defines the core job record exchanged between every MCBound
// component: submission-time features, execution/completion statistics and
// the raw performance counters from which boundness ground truth is
// derived. It also holds the Fugaku machine constants (paper Table I).
package job

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Label is the memory/compute-bound class of a job.
type Label int8

// The two classes defined by the original Roofline paper, plus Unknown for
// jobs that have not been characterized yet (e.g. newly submitted ones).
const (
	Unknown Label = iota
	MemoryBound
	ComputeBound
)

// String returns the canonical lower-case class name used throughout the
// paper ("memory-bound", "compute-bound").
func (l Label) String() string {
	switch l {
	case MemoryBound:
		return "memory-bound"
	case ComputeBound:
		return "compute-bound"
	default:
		return "unknown"
	}
}

// ParseLabel converts a class name back into a Label.
func ParseLabel(s string) (Label, error) {
	switch s {
	case "memory-bound":
		return MemoryBound, nil
	case "compute-bound":
		return ComputeBound, nil
	case "unknown":
		return Unknown, nil
	}
	return Unknown, fmt.Errorf("job: unknown label %q", s)
}

// Frequency is the CPU frequency mode requested by the user at submission.
type Frequency int32

// Fugaku exposes two user-selectable frequency modes.
const (
	FreqNormal Frequency = 2000 // MHz, "normal mode" (2.0 GHz)
	FreqBoost  Frequency = 2200 // MHz, "boost mode"  (2.2 GHz)
)

// String formats the frequency the way the paper does ("2.0 GHz").
func (f Frequency) String() string {
	return fmt.Sprintf("%.1f GHz", float64(f)/1000)
}

// PerfCounters are the per-job aggregated PMU counters recorded by the
// operations software at job completion. Names follow the Fugaku trace
// (perf2..perf5); the A64FX events they correspond to are given in the
// field comments.
type PerfCounters struct {
	Perf2 float64 `json:"perf2"` // FP_FIXED_OPS_SPEC: fixed-width FP operations
	Perf3 float64 `json:"perf3"` // FP_SCALE_OPS_SPEC: per-128-bit-SVE FP operations
	Perf4 float64 `json:"perf4"` // BUS_READ_TOTAL_MEM: memory read requests (summed per CMG core)
	Perf5 float64 `json:"perf5"` // BUS_WRITE_TOTAL_MEM: memory write requests (summed per CMG core)

	// TofuBytes is the total bytes the job injected into the Tofu-D
	// interconnect. It is part of the record and of the trace; the
	// two-way characterization (Eq. 1–5) does not read it.
	TofuBytes float64 `json:"tofu_bytes,omitempty"`
}

// ErrBadCounters is the sentinel wrapped by PerfCounters.Validate
// failures: counters that are NaN, infinite, or negative. The
// characterizer quarantines such jobs rather than letting them poison
// the Roofline position with NaN operational intensity.
var ErrBadCounters = errors.New("pathological performance counters")

// Validate rejects counter sets no real PMU can produce: NaN, ±Inf or
// negative raw values, and counter magnitudes so large the Eq. 4/5
// derivations overflow float64. Failures wrap ErrBadCounters.
func (c PerfCounters) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"perf2", c.Perf2},
		{"perf3", c.Perf3},
		{"perf4", c.Perf4},
		{"perf5", c.Perf5},
		{"tofu_bytes", c.TofuBytes},
	} {
		switch {
		case math.IsNaN(f.v):
			return fmt.Errorf("job: counter %s is NaN: %w", f.name, ErrBadCounters)
		case math.IsInf(f.v, 0):
			return fmt.Errorf("job: counter %s is infinite: %w", f.name, ErrBadCounters)
		case f.v < 0:
			return fmt.Errorf("job: counter %s = %g is negative: %w", f.name, f.v, ErrBadCounters)
		}
	}
	if flops := c.Flops(); math.IsInf(flops, 0) {
		return fmt.Errorf("job: derived flops overflow (perf2=%g perf3=%g): %w", c.Perf2, c.Perf3, ErrBadCounters)
	}
	if mb := c.MovedBytes(); math.IsInf(mb, 0) {
		return fmt.Errorf("job: derived moved bytes overflow (perf4=%g perf5=%g): %w", c.Perf4, c.Perf5, ErrBadCounters)
	}
	return nil
}

// Job is a single job run record. Submission-time fields are available to
// the online classifier; execution and counter fields only exist after the
// job completes and are used exclusively for characterization (ground
// truth) and analysis.
type Job struct {
	ID string `json:"id"`

	// Submission-time features (available before execution).
	User           string    `json:"user"`
	Name           string    `json:"name"`
	Environment    string    `json:"env"`
	CoresRequested int       `json:"cores_req"`
	NodesRequested int       `json:"nodes_req"`
	FreqRequested  Frequency `json:"freq_req"`
	SubmitTime     time.Time `json:"submit"`

	// Execution and completion data (available after execution).
	StartTime      time.Time    `json:"start"`
	EndTime        time.Time    `json:"end"`
	NodesAllocated int          `json:"nodes_alloc"`
	ExitCode       int          `json:"exit"`
	Counters       PerfCounters `json:"counters"`

	// TrueLabel is filled in by the Job Characterizer, never by the
	// generator: it is derived data, not a raw trace field.
	TrueLabel Label `json:"true_label,omitempty"`
}

// Duration returns the job execution time.
func (j *Job) Duration() time.Duration { return j.EndTime.Sub(j.StartTime) }

// Completed reports whether the job has finished executing (and therefore
// has meaningful execution statistics and counters).
func (j *Job) Completed(now time.Time) bool {
	return !j.EndTime.IsZero() && !j.EndTime.After(now)
}

// ErrInvalid is the sentinel wrapped by Validate failures; callers
// branch with errors.Is (the HTTP layer maps it to 400).
var ErrInvalid = errors.New("invalid job record")

// Validate performs basic sanity checks on a job record. Failures wrap
// ErrInvalid.
func (j *Job) Validate() error {
	switch {
	case j.ID == "":
		return fmt.Errorf("job: empty id: %w", ErrInvalid)
	case j.User == "":
		return fmt.Errorf("job %s: empty user: %w", j.ID, ErrInvalid)
	case j.NodesRequested <= 0:
		return fmt.Errorf("job %s: nodes_req %d <= 0: %w", j.ID, j.NodesRequested, ErrInvalid)
	case j.CoresRequested <= 0:
		return fmt.Errorf("job %s: cores_req %d <= 0: %w", j.ID, j.CoresRequested, ErrInvalid)
	case !j.EndTime.IsZero() && j.EndTime.Before(j.StartTime):
		return fmt.Errorf("job %s: end before start: %w", j.ID, ErrInvalid)
	case !j.StartTime.IsZero() && j.StartTime.Before(j.SubmitTime):
		return fmt.Errorf("job %s: start before submit: %w", j.ID, ErrInvalid)
	case j.FreqRequested != FreqNormal && j.FreqRequested != FreqBoost:
		return fmt.Errorf("job %s: invalid frequency %d: %w", j.ID, j.FreqRequested, ErrInvalid)
	}
	if err := j.Counters.Validate(); err != nil {
		return fmt.Errorf("job %s: %w: %w", j.ID, err, ErrInvalid)
	}
	return nil
}
