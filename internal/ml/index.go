package ml

// Candidate is one hit of a nearest-neighbor query against a
// VectorIndex: the row index into the indexed matrix and the exact
// squared Euclidean distance after re-ranking.
type Candidate struct {
	ID   int
	Dist float64
}

// VectorIndex answers approximate k-nearest-neighbor queries over a
// fixed row-major float32 matrix. It is the seam between the KNN
// classifier's voting logic and the sub-linear search structure (the
// IVF index in ml/ivf today; HNSW tomorrow). Implementations must be
// safe for concurrent Search calls.
type VectorIndex interface {
	// Search appends the (up to) k nearest rows of q into dst[:0],
	// sorted by ascending exact distance, and returns the result.
	// Passing a previously returned slice avoids the allocation.
	Search(q []float32, k int, dst []Candidate) []Candidate
	// Len returns the number of indexed rows.
	Len() int
	// Dim returns the row dimensionality.
	Dim() int
}

// IndexInfo describes an index-accelerated classifier's search
// structure (served on GET /v1/model and asserted by tests).
type IndexInfo struct {
	Enabled  bool   `json:"enabled"`
	Kind     string `json:"kind,omitempty"`     // e.g. "ivf"
	Indexed  int    `json:"indexed,omitempty"`  // rows in the index
	Clusters int    `json:"clusters,omitempty"` // coarse-quantizer cells
	NProbe   int    `json:"nprobe,omitempty"`   // cells scanned per query
}

// Indexed is implemented by classifiers whose inference path can run
// through a VectorIndex.
type Indexed interface {
	IndexInfo() IndexInfo
}
