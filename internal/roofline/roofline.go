// Package roofline implements the Roofline performance model (Williams et
// al., 2009) and the MCBound Job Characterizer built on it: the systematic
// technique that turns per-job performance counters into
// memory-bound/compute-bound ground-truth labels (paper §III-C and §IV-B).
package roofline

import (
	"errors"
	"fmt"

	"mcbound/internal/job"
)

// Model is a single-node Roofline: peak floating-point performance and
// peak memory bandwidth define a ridge point in the (operational
// intensity, performance) plane.
type Model struct {
	PeakGFlops   float64 // per-node peak FP64 performance, GFlop/s
	PeakMemBWGBs float64 // per-node peak memory bandwidth, GByte/s
}

// ModelFor builds the Roofline of a single node of the given machine.
func ModelFor(spec job.MachineSpec) Model {
	return Model{PeakGFlops: spec.PeakGFlops, PeakMemBWGBs: spec.PeakMemBWGBs}
}

// RidgePoint returns the operational intensity op_r (Flops/Byte) at which
// the bandwidth roof meets the compute roof: the minimum intensity needed
// to attain peak performance.
func (m Model) RidgePoint() float64 { return m.PeakGFlops / m.PeakMemBWGBs }

// Attainable returns the attainable performance in GFlop/s at operational
// intensity op: min(peak, op * bandwidth). This is the roof itself.
func (m Model) Attainable(op float64) float64 {
	bw := op * m.PeakMemBWGBs
	if bw < m.PeakGFlops {
		return bw
	}
	return m.PeakGFlops
}

// Classify labels an operational intensity against the ridge point:
// compute-bound strictly above it, memory-bound otherwise (the paper's
// generate_labels rule).
func (m Model) Classify(op float64) job.Label {
	if op > m.RidgePoint() {
		return job.ComputeBound
	}
	return job.MemoryBound
}

// Point is a job's position in the Roofline plane, all values normalized
// per node per second.
type Point struct {
	Performance float64 // p_j, GFlop/s per node (Eq. 1)
	Bandwidth   float64 // mb_j, GByte/s per node (Eq. 2)
	Intensity   float64 // op_j = p_j / mb_j, Flops/Byte (Eq. 3)
	Label       job.Label
}

// Characterizer is the MCBound Job Characterizer component: initialized
// with the per-node peaks of the machine, it derives the
// memory/compute-bound label of completed jobs from their execution
// statistics and performance counters.
type Characterizer struct {
	model Model
	ridge float64
}

// Errors returned by the Characterizer for jobs whose execution data
// cannot support a Roofline position.
var (
	ErrNotCompleted  = errors.New("roofline: job has no execution data (not completed)")
	ErrZeroDuration  = errors.New("roofline: job duration is zero")
	ErrZeroNodes     = errors.New("roofline: job has zero allocated nodes")
	ErrNoMemoryMoved = errors.New("roofline: job moved zero memory bytes")
)

// NewCharacterizer builds a Characterizer from a Roofline model.
func NewCharacterizer(m Model) *Characterizer {
	return &Characterizer{model: m, ridge: m.RidgePoint()}
}

// Model returns the underlying Roofline model.
func (c *Characterizer) Model() Model { return c.model }

// RidgePoint returns op_r computed at initialization time.
func (c *Characterizer) RidgePoint() float64 { return c.ridge }

// Characterize computes the Roofline point of a completed job:
//
//	p_j  = #flops_j / (duration_j * #nodes_alloc_j)          (Eq. 1)
//	mb_j = #moved_bytes_j / (duration_j * #nodes_alloc_j)    (Eq. 2)
//	op_j = p_j / mb_j                                        (Eq. 3)
//
// with #flops and #moved_bytes derived from the PMU counters via Eq. 4/5.
// Values are expressed in GFlop/s and GByte/s to match the model peaks.
func (c *Characterizer) Characterize(j *job.Job) (Point, error) {
	if j.EndTime.IsZero() || j.StartTime.IsZero() {
		return Point{}, fmt.Errorf("%w: job %s", ErrNotCompleted, j.ID)
	}
	dur := j.Duration().Seconds()
	if dur <= 0 {
		return Point{}, fmt.Errorf("%w: job %s", ErrZeroDuration, j.ID)
	}
	nodes := float64(j.NodesAllocated)
	if nodes <= 0 {
		return Point{}, fmt.Errorf("%w: job %s", ErrZeroNodes, j.ID)
	}
	if err := j.Counters.Validate(); err != nil {
		return Point{}, fmt.Errorf("roofline: job %s: %w", j.ID, err)
	}
	flops := j.Counters.Flops()
	bytes := j.Counters.MovedBytes()
	if bytes <= 0 {
		return Point{}, fmt.Errorf("%w: job %s", ErrNoMemoryMoved, j.ID)
	}
	nodeSec := dur * nodes
	p := Point{
		Performance: flops / nodeSec / 1e9, // GFlop/s per node
		Bandwidth:   bytes / nodeSec / 1e9, // GByte/s per node
	}
	p.Intensity = p.Performance / p.Bandwidth
	p.Label = c.model.Classify(p.Intensity)
	return p, nil
}

// GenerateLabels characterizes every job in jobs, writing the label into
// Job.TrueLabel. Jobs that cannot be characterized keep label Unknown:
// structurally incomplete ones (no execution data, zero duration/nodes,
// no memory moved) count in skipped, while jobs with pathological
// counters (NaN/Inf/negative, job.ErrBadCounters) count in quarantined —
// the latter indicate trace corruption and are surfaced separately so
// operators can spot a poisoned window. This is the batch API the
// Training Workflow invokes to build its reference dataset.
func (c *Characterizer) GenerateLabels(jobs []*job.Job) (labeled, skipped, quarantined int) {
	for _, j := range jobs {
		pt, err := c.Characterize(j)
		if err != nil {
			j.TrueLabel = job.Unknown
			if errors.Is(err, job.ErrBadCounters) {
				quarantined++
			} else {
				skipped++
			}
			continue
		}
		j.TrueLabel = pt.Label
		labeled++
	}
	return labeled, skipped, quarantined
}
