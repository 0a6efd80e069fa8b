// Package ml defines the Classification Model contract of MCBound
// (paper §III-D): a supervised model trained on encoded job data plus
// memory/compute-bound labels, performing inference on encoded data only.
// Concrete algorithms live in the knn, rf and baseline subpackages.
package ml

import (
	"errors"
	"fmt"

	"mcbound/internal/job"
)

// Classifier is the Classification Model interface. Implementations must
// be safe for concurrent Predict calls after Train returns.
type Classifier interface {
	// Train fits the model on encoded job vectors and their labels.
	// It replaces any previous fit.
	Train(x [][]float32, y []job.Label) error
	// Predict returns one label per input vector. It fails if the model
	// has not been trained.
	Predict(x [][]float32) ([]job.Label, error)
	// Name identifies the algorithm (for persistence and reports).
	Name() string
}

// Common training errors shared by the implementations.
var (
	ErrNotTrained = errors.New("ml: model not trained")
	ErrNoData     = errors.New("ml: empty training set")
)

// CheckTrainingData validates the (x, y) pair every Train implementation
// receives: non-empty, aligned, rectangular with at least one feature,
// with at least one known label. A trainer may therefore read &v[0] of
// every vector.
func CheckTrainingData(x [][]float32, y []job.Label) error {
	if len(x) == 0 {
		return ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d vectors vs %d labels", len(x), len(y))
	}
	dim := len(x[0])
	if dim == 0 {
		return fmt.Errorf("ml: vectors have no features")
	}
	known := false
	for i, v := range x {
		if len(v) != dim {
			return fmt.Errorf("ml: vector %d has dim %d, want %d", i, len(v), dim)
		}
		if y[i] != job.Unknown {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("ml: all training labels are unknown")
	}
	return nil
}
