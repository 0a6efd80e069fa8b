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
	"math"

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
// always i+1 and only the right child is stored. A leaf has a negative
// feature and carries its class in-band as ^feature. The split
// threshold is stored as its order key (see splitKey), not as the
// float: the kernel compares integers, and the float is recovered
// exactly when the forest is marshaled. 12 bytes a node; the served
// forest (100 trees, ≈ 190 K nodes) is 2.3 MB — a row's walk visits
// ≈ 2 800 nodes scattered over L2, not L1, which is why the kernel
// overlaps eight walks instead of waiting on one.
type node struct {
	key     int32 // splitKey of the threshold; 0 in a leaf
	feature int32 // split feature; in a leaf, ^class
	right   int32 // index of the right child; 0 in a leaf
}

func splitNode(threshold float32, feature int32) node {
	return node{key: splitKey(threshold), feature: feature}
}

func leafNode(class int) node { return node{feature: ^int32(class)} }

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
// v and every non-NaN t: rowKey(v) < splitKey(t) ⇔ v < t. Written on
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

// quantize produces the row-major binned matrix.
func (b *binner) quantize(x [][]float32) []uint8 {
	dim := len(x[0])
	out := make([]uint8, len(x)*dim)
	for i, row := range x {
		base := i * dim
		for f, v := range row {
			out[base+f] = uint8(b.binOf(f, v))
		}
	}
	return out
}

// treeBuilder grows one tree on a bootstrap sample.
type treeBuilder struct {
	cfg     Config
	dim     int
	binned  []uint8 // n*dim quantized training matrix (shared)
	classes []int8  // n training class ids (shared)
	binr    *binner
	rng     *stats.RNG

	idx   []int // the bootstrap sample, partitioned in place during growth
	nodes []node
	feats []int // scratch: feature permutation buffer
	hist  []int32
}

// build grows the tree and returns its nodes in preorder, right-child
// indices relative to the tree's own root.
func (tb *treeBuilder) build() []node {
	tb.feats = make([]int, tb.dim)
	for i := range tb.feats {
		tb.feats[i] = i
	}
	tb.hist = make([]int32, tb.cfg.Bins*numClasses)
	tb.grow(0, len(tb.idx), 0)
	return tb.nodes
}

// grow appends the subtree over idx[lo:hi] at the given depth: the
// split node, then its left subtree, then its right subtree.
func (tb *treeBuilder) grow(lo, hi, depth int) {
	n := hi - lo
	counts := [numClasses]int32{}
	for _, i := range tb.idx[lo:hi] {
		counts[tb.classes[i]]++
	}
	majority := 0
	if counts[1] > counts[0] {
		majority = 1
	}
	pure := counts[0] == 0 || counts[1] == 0

	leaf := func() { tb.nodes = append(tb.nodes, leafNode(majority)) }
	if pure || n < tb.cfg.MinSamplesSplit || (tb.cfg.MaxDepth > 0 && depth >= tb.cfg.MaxDepth) {
		leaf()
		return
	}

	feat, splitBin, gain := tb.bestSplit(lo, hi, counts)
	if feat < 0 || gain <= 1e-12 {
		leaf()
		return
	}

	mid := tb.partition(lo, hi, feat, splitBin)
	if mid == lo || mid == hi ||
		mid-lo < tb.cfg.MinSamplesLeaf || hi-mid < tb.cfg.MinSamplesLeaf {
		leaf()
		return
	}

	id := len(tb.nodes)
	tb.nodes = append(tb.nodes, splitNode(tb.binr.threshold(feat, splitBin), int32(feat)))
	tb.grow(lo, mid, depth+1)
	tb.nodes[id].right = int32(len(tb.nodes))
	tb.grow(mid, hi, depth+1)
}

// bestSplit evaluates mtry random features and returns the (feature,
// bin, Gini gain) of the best "bin <= s" split, or feat = -1 if none.
func (tb *treeBuilder) bestSplit(lo, hi int, total [numClasses]int32) (feat, splitBin int, gain float64) {
	n := float64(hi - lo)
	parentGini := giniOf(total, n)
	feat, splitBin = -1, -1

	mtry := tb.cfg.MaxFeatures
	// Partial Fisher–Yates: draw mtry distinct features.
	for k := 0; k < mtry; k++ {
		r := k + tb.rng.Intn(tb.dim-k)
		tb.feats[k], tb.feats[r] = tb.feats[r], tb.feats[k]
		f := tb.feats[k]

		// Per-class histogram of feature f over the node's samples.
		h := tb.hist
		for i := range h {
			h[i] = 0
		}
		for _, i := range tb.idx[lo:hi] {
			b := tb.binned[i*tb.dim+f]
			h[int(b)*numClasses+int(tb.classes[i])]++
		}

		// Sweep split points left-to-right accumulating class counts.
		var left [numClasses]int32
		for s := 0; s < tb.cfg.Bins-1; s++ {
			left[0] += h[s*numClasses]
			left[1] += h[s*numClasses+1]
			nl := float64(left[0] + left[1])
			if nl == 0 {
				continue
			}
			nr := n - nl
			if nr == 0 {
				break
			}
			right := [numClasses]int32{total[0] - left[0], total[1] - left[1]}
			g := parentGini - (nl*giniOf(left, nl)+nr*giniOf(right, nr))/n
			if g > gain {
				gain, feat, splitBin = g, f, s
			}
		}
	}
	return feat, splitBin, gain
}

// partition reorders idx[lo:hi] so samples with bin(feat) <= splitBin
// come first; returns the boundary.
func (tb *treeBuilder) partition(lo, hi, feat, splitBin int) int {
	i, k := lo, hi-1
	for i <= k {
		if int(tb.binned[tb.idx[i]*tb.dim+feat]) <= splitBin {
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
