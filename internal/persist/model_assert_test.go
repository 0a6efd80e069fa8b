package persist

import (
	"testing"

	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
)

// Both production model types must satisfy the persistence contract —
// this is the seam core.Framework relies on when saving versions.
func TestProductionModelsArePersistable(t *testing.T) {
	var _ Model = knn.New(knn.DefaultConfig())
	var _ Model = rf.New(rf.DefaultConfig())
}
