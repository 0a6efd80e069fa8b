package knn

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// matrixJobs is a window of n jobs over a few users and names, so that
// batches repeat feature strings, with labels drawn per job.
func matrixJobs(n int, seed uint64) ([]*job.Job, []job.Label) {
	rng := stats.NewRNG(seed)
	jobs := make([]*job.Job, n)
	y := make([]job.Label, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID:             fmt.Sprintf("j%d", i),
			User:           fmt.Sprintf("u%d", rng.Intn(9)),
			Name:           fmt.Sprintf("app_%d", rng.Intn(40)),
			Environment:    "gcc/12.2",
			CoresRequested: 48 * (1 + rng.Intn(3)),
			NodesRequested: 1 + rng.Intn(3),
			FreqRequested:  job.FreqNormal,
			SubmitTime:     time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC),
		}
		y[i] = job.Label(1 + rng.Intn(2))
	}
	return jobs, y
}

// TestTrainMatrixMatchesTrain: a window fitted from EncodeMatrix's slab
// by TrainMatrix and from Encode's shared vectors by Train marshals the
// same model, with and without an index, and counts the same groups and
// points.
func TestTrainMatrixMatchesTrain(t *testing.T) {
	jobs, y := matrixJobs(3000, 7)
	for _, mode := range []IndexMode{IndexOff, IndexOn} {
		cfg := Config{K: 5, Index: IndexConfig{Mode: mode, NClusters: 8, Seed: 2}}
		enc := encode.NewEncoder(nil, nil)
		fromRows := New(cfg)
		if err := fromRows.Train(enc.Encode(jobs), y); err != nil {
			t.Fatal(err)
		}
		data, row := enc.EncodeMatrix(jobs)
		fromSlab := New(cfg)
		if err := fromSlab.TrainMatrix(data, enc.Dim(), row, y); err != nil {
			t.Fatal(err)
		}
		want, _ := fromRows.MarshalBinary()
		got, _ := fromSlab.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("index %s: TrainMatrix marshals %d bytes that differ from Train's %d", mode, len(got), len(want))
		}
		if fromSlab.Groups() != fromRows.Groups() || fromSlab.TrainSize() != fromRows.TrainSize() {
			t.Fatalf("index %s: TrainMatrix has %d groups of %d points, Train %d of %d", mode,
				fromSlab.Groups(), fromSlab.TrainSize(), fromRows.Groups(), fromRows.TrainSize())
		}
	}
}

// TestTrainMatrixOutOfOrderRows: unlabeled points, rows first labeled
// out of row order and equal rows, against Train over the same points
// as slices of the matrix. The out-of-order rows cannot be compacted in
// place, and the caller's matrix is not the model's.
func TestTrainMatrixOutOfOrderRows(t *testing.T) {
	const dim = 3
	data := []float32{
		0, 0, 1, // row 0: first labeled after row 2
		1, 0, 0,
		0, 1, 0,
		1, 0, 0, // equal to row 1
	}
	row := []int32{0, 2, 1, 0, 3, 2}
	y := []job.Label{job.Unknown, job.MemoryBound, job.ComputeBound, job.ComputeBound, job.MemoryBound, job.ComputeBound}
	x := make([][]float32, len(row))
	for i, r := range row {
		x[i] = data[int(r)*dim : (int(r)+1)*dim]
	}
	want := trainBytes(t, DefaultConfig(), x, y)
	c := New(DefaultConfig())
	if err := c.TrainMatrix(append([]float32(nil), data...), dim, row, y); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("TrainMatrix and Train marshal different models")
	}
	if m, _ := c.Matrix(); c.Groups() != 3 || m[0] != 0 || m[1] != 1 {
		t.Fatalf("%d groups, first row %v; want 3, row 2's vector first", c.Groups(), m[:dim])
	}
}

// TestAlikeStringsMergeIntoOneGroup: cfd-prod and cfd_prod are two
// feature strings but tokenize, so embed, the same. EncodeMatrix gives
// each a row; TrainMatrix merges the two into one group whose counts are
// the sum of both strings' points.
func TestAlikeStringsMergeIntoOneGroup(t *testing.T) {
	mk := func(name string) *job.Job {
		return &job.Job{User: "u1", Name: name, Environment: "gcc/12.2", CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqNormal}
	}
	jobs := []*job.Job{mk("cfd-prod"), mk("cfd_prod"), mk("cfd_prod"), mk("cfd-prod"), mk("cfd_prod")}
	y := []job.Label{job.ComputeBound, job.MemoryBound, job.ComputeBound, job.ComputeBound, job.MemoryBound}
	enc := encode.NewEncoder(nil, nil)
	data, row := enc.EncodeMatrix(jobs)
	if len(data) != 2*enc.Dim() || !equalVec(data[:enc.Dim()], data[enc.Dim():]) {
		t.Fatalf("want two equal rows, got %d values", len(data))
	}
	c := New(DefaultConfig())
	if err := c.TrainMatrix(data, enc.Dim(), row, y); err != nil {
		t.Fatal(err)
	}
	if c.Groups() != 1 || c.TrainSize() != 5 {
		t.Fatalf("%d groups of %d points, want 1 of 5", c.Groups(), c.TrainSize())
	}
	if c.counts[0] != [2]int32{2, 3} {
		t.Fatalf("group counts %v, want [2 3] (memory-, compute-bound)", c.counts[0])
	}
}

// TestMatrixAliasesTheSlab: with nothing to merge, the model's group
// matrix is the slab it was handed, not a copy.
func TestMatrixAliasesTheSlab(t *testing.T) {
	jobs, y := matrixJobs(500, 3)
	enc := encode.NewEncoder(nil, nil)
	data, row := enc.EncodeMatrix(jobs)
	c := New(Config{K: 5, Index: IndexConfig{Mode: IndexOn, NClusters: 4, Seed: 1}})
	if err := c.TrainMatrix(data, enc.Dim(), row, y); err != nil {
		t.Fatal(err)
	}
	m, dim := c.Matrix()
	if c.Groups()*dim != len(data) {
		t.Fatalf("%d groups of %d from %d values: something merged", c.Groups(), dim, len(data))
	}
	if &m[0] != &data[0] || len(m) != len(data) {
		t.Fatal("the group matrix is a copy of the slab")
	}
}

// TestTrainMatrixValidation: what TrainMatrix refuses.
func TestTrainMatrixValidation(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	for name, tc := range map[string]struct {
		dim int
		row []int32
		y   []job.Label
	}{
		"empty":       {2, nil, nil},
		"misaligned":  {2, []int32{0}, []job.Label{job.MemoryBound, job.ComputeBound}},
		"bad width":   {3, []int32{0}, []job.Label{job.MemoryBound}},
		"zero width":  {0, []int32{0}, []job.Label{job.MemoryBound}},
		"row past":    {2, []int32{2}, []job.Label{job.MemoryBound}},
		"row below":   {2, []int32{-1}, []job.Label{job.MemoryBound}},
		"all unknown": {2, []int32{0, 1}, []job.Label{job.Unknown, job.Unknown}},
	} {
		if err := New(DefaultConfig()).TrainMatrix(append([]float32(nil), data...), tc.dim, tc.row, tc.y); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
