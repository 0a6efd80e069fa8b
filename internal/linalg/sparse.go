package linalg

// SparseSqDistCols measures one sparse vector x against every column of
// a table at once: with x's nonzero coordinates listed in idx (the
// coordinate) and val (its value), the table row-major with one row per
// coordinate and len(out) columns, and norms[c] the squared norm of
// column c, it writes
//
//	out[c] = norms[c] − 2·Σ_j val[j]·table[idx[j]·len(out) + c]
//
// that is ‖x − col c‖² − ‖x‖², which ranks the columns as the squared
// Euclidean distance does. It is the filter of the IVF k-means
// assignment (ivf.kmeans), whose columns are the centroids.
//
// The summation order is part of the contract: per column one float64
// chain from +0 in the order of idx, each term the product of the value
// and the table entry, rounded before it is added (no fused
// multiply-add); then norms[c] − (s + s). sparseSqDistColsGeneric
// is that definition, and the AVX2 backend, which runs up to
// forty-eight columns side by side, returns the same bits.
//
// It panics if len(norms) != len(out), len(idx) != len(val), the table
// is not len(out) columns wide, or a coordinate is outside its rows.
func SparseSqDistCols(norms []float64, idx []int32, val []float64, table, out []float64) {
	if len(norms) != len(out) || len(idx) != len(val) {
		panic("linalg: vector length mismatch")
	}
	if len(out) == 0 {
		return
	}
	if len(table)%len(out) != 0 {
		panic("linalg: matrix shape mismatch")
	}
	rows := len(table) / len(out)
	for _, i := range idx {
		if i < 0 || int(i) >= rows {
			panic("linalg: coordinate out of range")
		}
	}
	sparseSqDistCols(norms, idx, val, table, out)
}

// sparseSqDistColsGeneric is the reference kernel over the len(out)
// columns of a table whose rows start stride entries apart: the whole
// table, or the columns right of the vector kernel's.
func sparseSqDistColsGeneric(norms []float64, idx []int32, val []float64, table []float64, stride int, out []float64) {
	for c := range out {
		out[c] = 0
	}
	for j, i := range idx {
		v := val[j]
		row := table[int(i)*stride:][:len(out)]
		for c, t := range row {
			// The conversion forbids fusing the product into the add.
			out[c] += float64(v * t)
		}
	}
	for c, s := range out {
		out[c] = norms[c] - (s + s)
	}
}
