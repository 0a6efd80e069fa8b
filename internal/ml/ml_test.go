package ml

import (
	"errors"
	"testing"

	"mcbound/internal/job"
)

func TestCheckTrainingData(t *testing.T) {
	good := [][]float32{{1, 2}, {3, 4}}
	labels := []job.Label{job.MemoryBound, job.ComputeBound}
	if err := CheckTrainingData(good, labels); err != nil {
		t.Fatalf("valid data rejected: %v", err)
	}

	if err := CheckTrainingData(nil, nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: err = %v, want ErrNoData", err)
	}
	if err := CheckTrainingData(good, labels[:1]); err == nil {
		t.Error("accepted length mismatch")
	}
	ragged := [][]float32{{1, 2}, {3}}
	if err := CheckTrainingData(ragged, labels); err == nil {
		t.Error("accepted ragged matrix")
	}
	if err := CheckTrainingData([][]float32{{}, {}}, labels); err == nil {
		t.Error("accepted zero-width vectors")
	}
	unknown := []job.Label{job.Unknown, job.Unknown}
	if err := CheckTrainingData(good, unknown); err == nil {
		t.Error("accepted all-unknown labels")
	}
}
