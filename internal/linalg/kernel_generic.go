//go:build !amd64 || purego

package linalg

// Kernel names the backend of the distance kernels in this process:
// "generic" is the portable Go reference, the only one in this build.
func Kernel() string { return "generic" }

func sqDistInt8(a, b []int8) int64 { return sqDistInt8Generic(a, b) }

func sqEuclidean(a, b []float32) float64 { return sqEuclideanFrom(a, b, 0, 0) }

func sqEuclideanRows(q, mat []float32, out []float64) { sqEuclideanRowsEach(q, mat, out) }

func dotInt8Rows(q []int16, rows []int8, out []int32) { dotInt8RowsGeneric(q, rows, out) }

func sparseSqDistCols(norms []float64, idx []int32, val []float64, table, out []float64) {
	sparseSqDistColsGeneric(norms, idx, val, table, len(out), out)
}
