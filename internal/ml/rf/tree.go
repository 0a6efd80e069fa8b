// Package rf implements the Random Forest Classification Model of
// MCBound: an ensemble of CART decision trees, each trained on a
// bootstrap sample of the data with a random feature subset considered at
// every split, predictions decided by majority vote (paper §III-D,
// Breiman 2001).
//
// Split search uses per-node class histograms over a fixed per-feature
// quantization (32 bins computed once per forest), which keeps training
// O(features·samples) per node — the standard histogram-gradient trick —
// while producing ordinary threshold splits at inference time.
package rf

import (
	"bytes"
	"math"
	"slices"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// numClasses is the cardinality of the binary memory/compute-bound task.
const numClasses = 2

// classIndex maps a job label to a compact class id. Unknown labels are
// rejected before training.
func classIndex(l job.Label) int {
	if l == job.ComputeBound {
		return 1
	}
	return 0
}

func classLabel(i int) job.Label {
	if i == 1 {
		return job.ComputeBound
	}
	return job.MemoryBound
}

// node is one entry of the forest's preorder node array. grow appends a
// node and then its whole left subtree, so the left child of node i is
// always i+1 and only the right child is stored. The split threshold is
// stored as its order key (see splitKey), not as the float: the kernel
// compares integers, and the float is recovered exactly when the forest
// is marshaled.
//
// A leaf is a node that sends every row to itself: its right child is
// its own index, its feature 0 and its key leafKey + class. No row key
// is below −Inf's (rowKey), and leafKey + 1 is below that, so every row
// goes "right" at a leaf and stays there; every split key is above both
// leaf keys. One step — `next = i+1; if keys[feature] ≥ key { next =
// right }` — then serves splits and leaves alike, and a walk that has
// reached its leaf stays on it however many more steps it takes.
//
// 12 bytes a node; the served forest (100 trees, ≈ 190 K nodes) is
// 2.3 MB — a row's walk visits ≈ 2 800 nodes scattered over L2, not L1,
// which is why the kernel overlaps eight walks instead of waiting on one.
type node struct {
	key     int32 // splitKey of the threshold; in a leaf, leafKey + class
	feature int32 // split feature; 0 in a leaf
	right   int32 // index of the right child; in a leaf, its own index
}

// leafKey is the key of a memory-bound leaf; a compute-bound leaf's is
// one above it.
const leafKey = math.MinInt32

func splitNode(threshold float32, feature int32) node {
	return node{key: splitKey(threshold), feature: feature}
}

// leafNode is a leaf of class class at index self.
func leafNode(class int, self int32) node { return node{key: leafKey + int32(class), right: self} }

// class is a leaf's class.
func (n node) class() int32 { return n.key - leafKey }

func (n node) threshold() float32 { return math.Float32frombits(uint32(flipNegative(n.key))) }

// flipNegative flips the magnitude bits of a negative int32 and leaves
// the rest alone. On float32 bit patterns it turns sign-and-magnitude
// order into two's-complement order, and it is its own inverse.
func flipNegative(b int32) int32 { return b ^ (b>>31)&math.MaxInt32 }

// splitKey maps a float32 that is not NaN to the int32 whose integer
// order is the float order, so a node keeps the key alone and gives the
// float back exactly. −0 lands one below +0 (−1 and 0).
func splitKey(t float32) int32 { return flipNegative(int32(math.Float32bits(t))) }

// rowKey is splitKey for a query value, with the two cases patched in
// which integer order would part from the float compare `v < t`: −0 is
// folded onto +0 (no row key is ever −1, so a threshold of either zero
// sends the same rows left), and a NaN of either sign becomes the
// largest key, so it is less than no threshold and always goes right —
// provided no threshold is NaN, which UnmarshalBinary checks. For every
// v and every non-NaN t: rowKey(v) < splitKey(t) ⇔ v < t. The smallest
// key it returns is −Inf's, −2 139 095 041, above both leaf keys. Written on
// the bits, without a float compare, so it compiles to conditional
// moves: served rows are sparse, and `v == 0` would be a coin toss.
func rowKey(v float32) int32 {
	b := int32(math.Float32bits(v))
	k := flipNegative(b)
	if b&math.MaxInt32 > 0x7f800000 { // NaN: magnitude bits above infinity's
		k = math.MaxInt32
	}
	if b == math.MinInt32 { // −0
		k = 0
	}
	return k
}

// binner quantizes each feature into B uniform bins between the observed
// per-feature min and max.
type binner struct {
	bins int
	min  []float32 // per feature
	inv  []float32 // per feature: bins / (max - min), 0 for constant features
	wid  []float32 // per feature bin width
}

func newBinner(x [][]float32, bins int) *binner {
	dim := len(x[0])
	b := &binner{
		bins: bins,
		min:  make([]float32, dim),
		inv:  make([]float32, dim),
		wid:  make([]float32, dim),
	}
	maxv := make([]float32, dim)
	for f := 0; f < dim; f++ {
		b.min[f] = math.MaxFloat32
		maxv[f] = -math.MaxFloat32
	}
	for _, row := range x {
		for f, v := range row {
			if v < b.min[f] {
				b.min[f] = v
			}
			if v > maxv[f] {
				maxv[f] = v
			}
		}
	}
	for f := 0; f < dim; f++ {
		span := maxv[f] - b.min[f]
		if span > 0 {
			b.inv[f] = float32(bins) / span
			b.wid[f] = span / float32(bins)
		}
	}
	return b
}

// binOf quantizes value v of feature f to [0, bins).
func (b *binner) binOf(f int, v float32) int {
	bin := int((v - b.min[f]) * b.inv[f])
	if bin < 0 {
		bin = 0
	}
	if bin >= b.bins {
		bin = b.bins - 1
	}
	return bin
}

// threshold returns the raw-value threshold corresponding to a split
// "bin <= s goes left": the lower edge of bin s+1.
func (b *binner) threshold(f, s int) float32 {
	return b.min[f] + float32(s+1)*b.wid[f]
}

// trainRows is what a fit reads of its training set: the distinct binned
// rows, and for every training row the weight a bootstrap draw of it
// adds to. Training never sees a raw value, so two rows with one binned
// image are one row drawn twice as often — the trace's batches make
// that four rows in five — and a tree is grown on the distinct rows
// under integer weights instead of on the samples.
type trainRows struct {
	distinct int
	bins     []uint8 // distinct × dim, row-major, in order of first appearance
	slot     []int32 // per training row: numClasses·(its distinct row) + its class
}

// distinct quantizes each of the training set's vectors and keeps each
// binned image once: hash, then byte compare, in an open-addressed
// table, with no per-vector allocation. Training row i is vecs[vec[i]]
// under class classes[i], and vecs is in the order of the rows' first
// appearance, so the images are numbered in that order too. The matrix
// is reserved for the case that no two vectors bin alike and handed back
// if it stayed mostly empty, so a fit holds the distinct rows and not a
// second vectors × dim matrix.
func (b *binner) distinct(vecs [][]float32, vec []int32, classes []uint8) trainRows {
	dim := len(vecs[0])
	size := 1
	for size < 2*len(vecs) {
		size <<= 1
	}
	table := make([]int32, size)   // 1 + distinct row, 0 for an empty slot
	var hashes []uint64            // per distinct row
	of := make([]int32, len(vecs)) // per vector: its distinct row
	rows := trainRows{bins: make([]uint8, 0, len(vecs)*dim), slot: make([]int32, len(vec))}
	for i, row := range vecs {
		// The candidate is quantized into the slot behind the rows kept so
		// far, and the matrix grows over it if it is new.
		d := len(hashes)
		image := rows.bins[d*dim : (d+1)*dim]
		h := uint64(14695981039346656037) // FNV-1a over the bin bytes
		for f, v := range row {
			image[f] = uint8(b.binOf(f, v))
			h = (h ^ uint64(image[f])) * 1099511628211
		}
		p := h & uint64(size-1)
		for ; table[p] != 0; p = (p + 1) & uint64(size-1) {
			if e := int(table[p] - 1); hashes[e] == h && bytes.Equal(rows.bins[e*dim:(e+1)*dim], image) {
				d = e
				break
			}
		}
		if d == len(hashes) {
			table[p] = int32(d + 1)
			hashes = append(hashes, h)
			rows.bins = rows.bins[:(d+1)*dim]
		}
		of[i] = int32(d)
	}
	for i, v := range vec {
		rows.slot[i] = of[v]*numClasses + int32(classes[i])
	}
	rows.distinct = len(hashes)
	if len(rows.bins) < cap(rows.bins)/2 {
		rows.bins = slices.Clone(rows.bins)
	}
	return rows
}

// treeBuilder grows trees, one after the other, on bootstrap samples of
// one training set; everything it allocates is reused from tree to tree.
type treeBuilder struct {
	cfg  Config
	dim  int
	mtry int // features drawn a split: ⌊√dim⌋, at least one
	rows trainRows
	binr *binner
	rng  *stats.RNG

	w     []int32 // per distinct row and class: times the tree's bootstrap drew it
	idx   []int32 // the distinct rows drawn at all, partitioned in place during growth
	nodes []node
	feats []int    // feature permutation buffer
	hist  []uint64 // mtry class histograms of Bins entries, class 1 in the high half
}

func newTreeBuilder(cfg Config, dim int, rows trainRows, binr *binner) *treeBuilder {
	mtry := max(1, int(math.Sqrt(float64(dim))))
	return &treeBuilder{
		cfg:   cfg,
		dim:   dim,
		mtry:  mtry,
		rows:  rows,
		binr:  binr,
		w:     make([]int32, rows.distinct*numClasses),
		idx:   make([]int32, 0, rows.distinct),
		feats: make([]int, dim),
		hist:  make([]uint64, mtry*cfg.Bins),
	}
}

// build draws a bootstrap sample of the training rows from rng — one
// index per row, with replacement — grows a tree on it and returns the
// tree's nodes in preorder, right-child indices (a leaf's own index
// included) relative to its root.
func (tb *treeBuilder) build(rng *stats.RNG) []node {
	tb.rng = rng
	clear(tb.w)
	n := len(tb.rows.slot)
	for range tb.rows.slot {
		tb.w[tb.rows.slot[rng.Intn(n)]]++
	}
	tb.idx = tb.idx[:0]
	var counts [numClasses]int32
	for d := 0; d < tb.rows.distinct; d++ {
		w0, w1 := tb.w[d*numClasses], tb.w[d*numClasses+1]
		if w0+w1 > 0 {
			tb.idx = append(tb.idx, int32(d))
			counts[0] += w0
			counts[1] += w1
		}
	}
	for i := range tb.feats {
		tb.feats[i] = i
	}
	tb.nodes = tb.nodes[:0]
	tb.grow(0, len(tb.idx), 0, counts)
	return slices.Clone(tb.nodes)
}

// grow appends the subtree over idx[lo:hi] at the given depth: the
// split node, then its left subtree, then its right subtree. counts is
// the node's samples by class — the weights of its rows, summed. An
// impure node holds at least two samples and bestSplit leaves none of
// its sides empty, so a node splits whenever a split gains: scikit-learn's
// min_samples_split of 2 and min_samples_leaf of 1.
func (tb *treeBuilder) grow(lo, hi, depth int, counts [numClasses]int32) {
	majority := 0
	if counts[1] > counts[0] {
		majority = 1
	}
	pure := counts[0] == 0 || counts[1] == 0
	if pure || depth >= tb.cfg.MaxDepth {
		tb.nodes = append(tb.nodes, leafNode(majority, int32(len(tb.nodes))))
		return
	}

	feat, splitBin, left := tb.bestSplit(lo, hi, counts)
	if feat < 0 {
		tb.nodes = append(tb.nodes, leafNode(majority, int32(len(tb.nodes))))
		return
	}
	right := [numClasses]int32{counts[0] - left[0], counts[1] - left[1]}

	mid := tb.partition(lo, hi, feat, splitBin)
	id := len(tb.nodes)
	tb.nodes = append(tb.nodes, splitNode(tb.binr.threshold(feat, splitBin), int32(feat)))
	tb.grow(lo, mid, depth+1, left)
	tb.nodes[id].right = int32(len(tb.nodes))
	tb.grow(mid, hi, depth+1, right)
}

// bestSplit draws mtry random features and returns the best "bin <= s"
// split among them by Gini gain, with the class counts of its left side,
// or feat = -1 if no split gains. The features are drawn first; then one
// pass over the node's rows fills all their histograms (a row's bins
// are read once a node, and the histograms — 4.9 KB at the defaults —
// stay in L1); then the histograms are swept in draw order, a later
// split replacing an earlier one only if it gains strictly more.
func (tb *treeBuilder) bestSplit(lo, hi int, total [numClasses]int32) (feat, splitBin int, bestLeft [numClasses]int32) {
	mtry, bins := tb.mtry, tb.cfg.Bins
	// Partial Fisher–Yates: draw mtry distinct features.
	for k := 0; k < mtry; k++ {
		r := k + tb.rng.Intn(tb.dim-k)
		tb.feats[k], tb.feats[r] = tb.feats[r], tb.feats[k]
	}
	feats := tb.feats[:mtry]

	clear(tb.hist)
	for _, d := range tb.idx[lo:hi] {
		row := tb.rows.bins[int(d)*tb.dim : (int(d)+1)*tb.dim]
		w := uint64(uint32(tb.w[d*numClasses])) | uint64(uint32(tb.w[d*numClasses+1]))<<32
		for k, f := range feats {
			tb.hist[k*bins+int(row[f])] += w
		}
	}

	n := float64(total[0] + total[1])
	parentGini := giniOf(total, n)
	feat, splitBin = -1, -1
	gain := 1e-12 // a split must gain more than rounding noise
	for k, f := range feats {
		h := tb.hist[k*bins : (k+1)*bins]
		// Sweep split points left-to-right accumulating class counts.
		var left [numClasses]int32
		for s := 0; s < bins-1; s++ {
			if h[s] == 0 {
				// An empty bin moves no row across: this is the previous
				// split again (or no split yet) and gains nothing more.
				continue
			}
			left[0] += int32(uint32(h[s]))
			left[1] += int32(h[s] >> 32)
			nl := float64(left[0] + left[1])
			nr := n - nl
			if nr == 0 {
				break
			}
			right := [numClasses]int32{total[0] - left[0], total[1] - left[1]}
			g := parentGini - (nl*giniOf(left, nl)+nr*giniOf(right, nr))/n
			if g > gain {
				gain, feat, splitBin, bestLeft = g, f, s, left
			}
		}
	}
	return feat, splitBin, bestLeft
}

// partition reorders idx[lo:hi] so rows with bin(feat) <= splitBin come
// first; returns the boundary.
func (tb *treeBuilder) partition(lo, hi, feat, splitBin int) int {
	i, k := lo, hi-1
	for i <= k {
		if int(tb.rows.bins[int(tb.idx[i])*tb.dim+feat]) <= splitBin {
			i++
		} else {
			tb.idx[i], tb.idx[k] = tb.idx[k], tb.idx[i]
			k--
		}
	}
	return i
}

// giniOf returns the Gini impurity of a class count vector with total n.
func giniOf(c [numClasses]int32, n float64) float64 {
	if n == 0 {
		return 0
	}
	p0 := float64(c[0]) / n
	p1 := float64(c[1]) / n
	return 1 - p0*p0 - p1*p1
}
