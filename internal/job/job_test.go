package job

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func validJob() *Job {
	submit := time.Date(2024, 2, 1, 12, 0, 0, 0, time.UTC)
	return &Job{
		ID:             "fj000000001",
		User:           "u0001",
		Name:           "cfd_prod_01",
		Environment:    "gcc/12.2",
		CoresRequested: 96,
		NodesRequested: 2,
		FreqRequested:  FreqNormal,
		SubmitTime:     submit,
		StartTime:      submit.Add(3 * time.Minute),
		EndTime:        submit.Add(33 * time.Minute),
		NodesAllocated: 2,
	}
}

func TestLabelString(t *testing.T) {
	cases := []struct {
		l    Label
		want string
	}{
		{MemoryBound, "memory-bound"},
		{ComputeBound, "compute-bound"},
		{Unknown, "unknown"},
		{Label(99), "unknown"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("Label(%d).String() = %q, want %q", c.l, got, c.want)
		}
	}
}

func TestParseLabelRoundTrip(t *testing.T) {
	for _, l := range []Label{MemoryBound, ComputeBound, Unknown} {
		got, err := ParseLabel(l.String())
		if err != nil {
			t.Fatalf("ParseLabel(%q): %v", l.String(), err)
		}
		if got != l {
			t.Errorf("round trip %v -> %v", l, got)
		}
	}
	if _, err := ParseLabel("gpu-bound"); err == nil {
		t.Error("ParseLabel accepted an unknown class name")
	}
}

func TestFrequencyString(t *testing.T) {
	if got := FreqNormal.String(); got != "2.0 GHz" {
		t.Errorf("FreqNormal = %q", got)
	}
	if got := FreqBoost.String(); got != "2.2 GHz" {
		t.Errorf("FreqBoost = %q", got)
	}
}

func TestJobDurationAndCompleted(t *testing.T) {
	if got := validJob().Duration(); got != 30*time.Minute {
		t.Errorf("Duration = %v, want 30m", got)
	}
}

func TestValidate(t *testing.T) {
	if err := validJob().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Job)
	}{
		{"empty id", func(j *Job) { j.ID = "" }},
		{"empty user", func(j *Job) { j.User = "" }},
		{"zero nodes", func(j *Job) { j.NodesRequested = 0 }},
		{"zero cores", func(j *Job) { j.CoresRequested = 0 }},
		{"end before start", func(j *Job) { j.EndTime = j.StartTime.Add(-time.Minute) }},
		{"start before submit", func(j *Job) { j.StartTime = j.SubmitTime.Add(-time.Minute) }},
		{"bad frequency", func(j *Job) { j.FreqRequested = 1800 }},
	}
	for _, m := range mutations {
		j := validJob()
		m.mut(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid job", m.name)
		}
	}
}

func TestFugakuSpecTable1(t *testing.T) {
	spec := FugakuSpec()
	if spec.Nodes != 158976 {
		t.Errorf("Nodes = %d, want 158976", spec.Nodes)
	}
	if spec.CoresPerNode != 48 || spec.AssistantCores != 4 {
		t.Errorf("cores = %d+%d, want 48+4", spec.CoresPerNode, spec.AssistantCores)
	}
	if spec.MemoryPerNodeGB != 32 {
		t.Errorf("memory = %d GiB, want 32", spec.MemoryPerNodeGB)
	}
	if spec.PeakGFlops != 3380 || spec.PeakMemBWGBs != 1024 {
		t.Errorf("peaks = %g GF, %g GB/s; want 3380, 1024", spec.PeakGFlops, spec.PeakMemBWGBs)
	}
	// The paper's op_r ≈ 3.3 Flops/Byte.
	ridge := spec.RidgePoint()
	if ridge < 3.2 || ridge > 3.4 {
		t.Errorf("ridge point = %g, want ≈3.3", ridge)
	}
}

func TestPerfCounterEquations(t *testing.T) {
	// Eq. 4: #flops = perf2 + perf3*4.
	c := PerfCounters{Perf2: 1000, Perf3: 250}
	if got := c.Flops(); got != 2000 {
		t.Errorf("Flops = %g, want 2000", got)
	}
	// Eq. 5: #moved_bytes = (perf4+perf5)*256/12.
	c = PerfCounters{Perf4: 6, Perf5: 6}
	if got := c.MovedBytes(); got != 256 {
		t.Errorf("MovedBytes = %g, want 256", got)
	}
}

func TestPerfCounterProperties(t *testing.T) {
	// Flops and MovedBytes are non-negative and monotone in each counter.
	f := func(p2, p3, p4, p5 uint32) bool {
		c := PerfCounters{Perf2: float64(p2), Perf3: float64(p3), Perf4: float64(p4), Perf5: float64(p5)}
		bigger := PerfCounters{Perf2: c.Perf2 + 1, Perf3: c.Perf3 + 1, Perf4: c.Perf4 + 1, Perf5: c.Perf5 + 1}
		return c.Flops() >= 0 && c.MovedBytes() >= 0 &&
			bigger.Flops() > c.Flops() && bigger.MovedBytes() > c.MovedBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfCountersValidate(t *testing.T) {
	if err := (PerfCounters{Perf2: 1e12, Perf4: 1e9}).Validate(); err != nil {
		t.Fatalf("valid counters rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		c    PerfCounters
	}{
		{"nan perf2", PerfCounters{Perf2: nan}},
		{"nan perf3", PerfCounters{Perf3: nan}},
		{"nan perf4", PerfCounters{Perf4: nan}},
		{"nan perf5", PerfCounters{Perf5: nan}},
		{"nan tofu", PerfCounters{TofuBytes: nan}},
		{"inf perf2", PerfCounters{Perf2: inf}},
		{"neg inf perf3", PerfCounters{Perf3: math.Inf(-1)}},
		{"negative perf4", PerfCounters{Perf4: -1}},
		{"negative perf5", PerfCounters{Perf5: -0.5}},
		{"flops overflow", PerfCounters{Perf2: math.MaxFloat64, Perf3: math.MaxFloat64}},
		{"bytes overflow", PerfCounters{Perf4: math.MaxFloat64, Perf5: math.MaxFloat64}},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if !errors.Is(err, ErrBadCounters) {
			t.Errorf("%s: err = %v, want ErrBadCounters", tc.name, err)
		}
	}
}

func TestValidateRejectsBadCounters(t *testing.T) {
	j := validJob()
	j.Counters.Perf2 = math.NaN()
	err := j.Validate()
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v, want ErrInvalid", err)
	}
	if !errors.Is(err, ErrBadCounters) {
		t.Errorf("err = %v, want ErrBadCounters in chain", err)
	}
}
