package rf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/stats"
)

// Config holds the forest hyper-parameters. Defaults track the
// scikit-learn RandomForestClassifier defaults the paper relies on
// (100 trees, sqrt(features) per split, nodes expanded until pure),
// with a histogram resolution knob.
type Config struct {
	NumTrees        int // default 100
	MaxDepth        int // 0 = unlimited
	MinSamplesSplit int // default 2
	MinSamplesLeaf  int // default 1
	MaxFeatures     int // 0 = floor(sqrt(dim))
	Bins            int // histogram resolution, default 32
	Seed            uint64
}

// DefaultConfig returns the scikit-learn-equivalent defaults.
func DefaultConfig() Config {
	return Config{
		NumTrees:        100,
		MinSamplesSplit: 2,
		MinSamplesLeaf:  1,
		Bins:            32,
		Seed:            1,
	}
}

// Classifier is a Random Forest model. The zero value is unusable; use
// New.
type Classifier struct {
	cfg Config

	mu  sync.RWMutex
	dim int
	// The fitted forest is one contiguous array: tree t starts at
	// nodes[roots[t]] and runs, in preorder (see node), to the next root
	// or the end; right-child indices are absolute, and a split's is
	// above its own. Predict trusts every index in it; Train builds it
	// and UnmarshalBinary validates it.
	nodes []node
	roots []int32
}

// New builds an untrained forest. Non-positive config fields fall back to
// the defaults.
func New(cfg Config) *Classifier {
	def := DefaultConfig()
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = def.NumTrees
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = def.MinSamplesSplit
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = def.MinSamplesLeaf
	}
	if cfg.Bins <= 1 || cfg.Bins > 256 {
		cfg.Bins = def.Bins
	}
	return &Classifier{cfg: cfg}
}

// Name implements ml.Classifier.
func (c *Classifier) Name() string { return "rf" }

// Config returns the model's hyper-parameters.
func (c *Classifier) Config() Config { return c.cfg }

// NumTrees returns the number of fitted trees (0 before training).
func (c *Classifier) NumTrees() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.roots)
}

// Train implements ml.Classifier: it quantizes the data once, keeping
// each distinct binned row once (trainRows), then grows each tree on an
// independent bootstrap sample. Trees are grown in parallel across
// cores; every tree's randomness derives from the forest seed so
// training is deterministic regardless of scheduling.
//
// Rows that share a backing array are one vector: the encoder hands
// jobs with equal feature strings one slice, so a window of batch
// submissions holds far fewer vectors than rows, and only a vector's
// first row is scanned, quantized and hashed.
func (c *Classifier) Train(x [][]float32, y []job.Label) error {
	if err := ml.CheckTrainingData(x, y); err != nil {
		return err
	}
	// Drop unlabeled rows: the characterizer may have skipped some jobs.
	var vecs [][]float32 // the labeled rows' vectors, in order of first appearance
	seen := map[*float32]int32{}
	vec := make([]int32, 0, len(x)) // per labeled row: its index in vecs
	classes := make([]uint8, 0, len(y))
	for i, l := range y {
		if l == job.Unknown {
			continue
		}
		v, ok := seen[&x[i][0]]
		if !ok {
			v = int32(len(vecs))
			seen[&x[i][0]] = v
			vecs = append(vecs, x[i])
		}
		vec = append(vec, v)
		classes = append(classes, uint8(classIndex(l)))
	}
	if len(vecs) == 0 {
		return fmt.Errorf("rf: no labeled training rows")
	}

	dim := len(vecs[0])
	cfg := c.cfg
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures > dim {
		cfg.MaxFeatures = int(math.Sqrt(float64(dim)))
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	if cfg.MaxDepth <= 0 {
		// "Unlimited" with a hard cap, which real forests reach: on the
		// served s30 forest 2.4 % of the leaves sit at depth 40 and 41.8 %
		// of the held-out rows' tree walks end at one (DESIGN.md §7).
		// scikit-learn grows to pure leaves; lifting the cap moves every
		// model byte.
		cfg.MaxDepth = 40
	}

	binr := newBinner(vecs, cfg.Bins)
	rows := binr.distinct(vecs, vec, classes)

	trees := make([][]node, cfg.NumTrees)
	master := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	// One builder a worker; the workers take the next tree not yet begun.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), cfg.NumTrees); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := newTreeBuilder(cfg, dim, rows, binr)
			for t := int(next.Add(1)) - 1; t < cfg.NumTrees; t = int(next.Add(1)) - 1 {
				trees[t] = tb.build(stats.NewRNG(seeds[t]))
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, t := range trees {
		total += len(t)
	}
	if total > math.MaxInt32 {
		return fmt.Errorf("rf: forest of %d nodes exceeds the node index range", total)
	}
	nodes := make([]node, 0, total)
	roots := make([]int32, 0, len(trees))
	for _, t := range trees {
		base := int32(len(nodes))
		roots = append(roots, base)
		nodes = append(nodes, t...)
		for i := base; i < int32(len(nodes)); i++ {
			nodes[i].right += base
		}
	}

	c.mu.Lock()
	c.dim, c.nodes, c.roots = dim, nodes, roots
	c.mu.Unlock()
	return nil
}

// The two constants of the traversal kernel, chosen on the served s30
// forest (100 trees, 188 K nodes, a row crosses 28.5 splits a tree;
// 2 vCPU; one row / 1 000 rows):
//
// lanes is how many trees a row walks in lockstep. One walk is a chain
// of dependent loads — node, then the row's key for that node's
// feature, then the next node — that the core cannot start early;
// several chains side by side keep it busy while each waits. A step of
// the amd64 kernel is six instructions on a chain of two loads, a
// compare and a conditional move, ≈ 12 cycles from L1 and more from L2;
// eight lanes are 48 instructions a turn, which a four-wide core issues
// in about as long, and their eight indices, the two base pointers and
// four scratch registers are all fourteen general registers a function
// may use (DESIGN.md §8.1 has the lane sweep).
//
// rowBlock is how many rows are keyed together and then taken through
// one group of trees back to back, so the group (≈ 180 KB) is fetched
// once a block and not once a row. 1 row: 5.3 ms per 1 000; 8: 5.2;
// 64: 4.9; 128: 4.9 — little on a box whose L2 nearly holds the forest,
// more as the forest outgrows it.
//
// (The loop this replaced — tree-outer, row-inner, a branch per split —
// took 26.3 µs and 5.6 ms on the same inputs.)
const (
	lanes    = 8
	rowBlock = 64
)

// stackKeys is the key buffer every worker has on its stack; a lone row
// of the served dimension (384) fits, so the single-job request
// allocates nothing but its result. A block of rows gets one heap
// buffer per worker.
const stackKeys = 512

// Predict implements ml.Classifier: majority vote across trees, ties
// resolved to memory-bound (the majority class of the domain). The
// batch is split once across workers, and a worker takes its rows a
// block at a time (predictBlock).
func (c *Classifier) Predict(x [][]float32) ([]job.Label, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.roots) == 0 {
		return nil, ml.ErrNotTrained
	}
	for i, v := range x {
		if len(v) != c.dim {
			return nil, fmt.Errorf("rf: query %d has dim %d, want %d", i, len(v), c.dim)
		}
	}
	out := make([]job.Label, len(x))
	nodes, roots, dim := c.nodes, c.roots, c.dim
	linalg.ParallelFor(len(x), func(lo, hi int) {
		var stack [stackKeys]int32
		keys := stack[:]
		if n := min(hi-lo, rowBlock) * dim; n > len(keys) {
			keys = make([]int32, n)
		}
		for ; lo < hi; lo += rowBlock {
			end := min(hi, lo+rowBlock)
			predictBlock(nodes, roots, dim, keys, x[lo:end], out[lo:end])
		}
	})
	return out, nil
}

// predictBlock labels at most rowBlock rows into out and returns how
// many (row, tree) walks that took. Each row is mapped once to order
// keys (rowKey); then every group of eight trees is walked by the rows
// still open in lockstep (walk8), the trees left over one at a time.
//
// A row is open while its label can still change. The label is
// 2·votes > trees, votes only grow, and a tree adds at most one: once a
// row's votes pass half the forest it is compute-bound whatever the
// other trees say, and once its votes plus the trees it has not walked
// no longer pass half it is memory-bound (the tie included). Such a row
// leaves the active list and the block ends when the list is empty —
// after the last tree at the latest, since with no tree left one of the
// two holds. The votes are the same integers summed in the same tree
// order as a full count, so the label read off the partial sum is the
// full count's label.
func predictBlock(nodes []node, roots []int32, dim int, keys []int32, rows [][]float32, out []job.Label) (walks int) {
	for q, row := range rows {
		k := keys[q*dim : (q+1)*dim]
		for f, v := range row {
			k[f] = rowKey(v)
		}
	}
	var votes [rowBlock]int32 // trees voting compute-bound, per row
	var active [rowBlock]uint8
	open := len(rows)
	for q := range open {
		active[q] = uint8(q)
	}
	half := int32(len(roots) / 2)
	t := 0
	for ; t+lanes <= len(roots) && open > 0; t += lanes {
		group := (*[lanes]int32)(roots[t:])
		left := int32(len(roots) - t - lanes)
		walks += lanes * open
		still := 0
		for _, q := range active[:open] {
			v := votes[q] + walk8(nodes, keys[int(q)*dim:(int(q)+1)*dim], group)
			votes[q] = v
			if undecided(v, left, half) {
				active[still] = q
				still++
			}
		}
		open = still
	}
	for ; t < len(roots) && open > 0; t++ {
		left := int32(len(roots) - t - 1)
		walks += open
		still := 0
		for _, q := range active[:open] {
			k := keys[int(q)*dim : (int(q)+1)*dim]
			i := roots[t]
			for next := step(nodes, k, i); next != i; next = step(nodes, k, i) {
				i = next
			}
			v := votes[q] + nodes[i].class()
			votes[q] = v
			if undecided(v, left, half) {
				active[still] = q
				still++
			}
		}
		open = still
	}
	for q := range rows {
		class := 0
		if votes[q] > half {
			class = 1
		}
		out[q] = classLabel(class)
	}
	return walks
}

// undecided reports whether a row with v compute-bound votes and left
// trees to walk can still end on either side of half the forest.
func undecided(v, left, half int32) bool { return v <= half && v+left > half }

// walk8Go takes one row down eight trees at once (it is written out for
// lanes = 8) and returns how many of them vote compute-bound. Every
// turn moves every lane one step; a lane that has reached its leaf
// stays on it, and every fourth turn asks whether any lane moved: a
// split always moves a lane to a higher index, so a turn in which the
// sum of the eight indices stands still found all eight on leaves.
// The class count is the sum of the eight leaf keys: each is leafKey +
// class, and eight leafKeys are −2³⁴, a multiple of 2³² that int32
// arithmetic drops.
//
// It is the definition of walk8: the assembly kernel on amd64
// (walk_amd64.s) takes the same steps in the same order, and every other
// build calls this one.
func walk8Go(nodes []node, keys []int32, roots *[lanes]int32) int32 {
	i0, i1, i2, i3 := roots[0], roots[1], roots[2], roots[3]
	i4, i5, i6, i7 := roots[4], roots[5], roots[6], roots[7]
	for {
		for range 3 {
			i0, i1, i2, i3 = step(nodes, keys, i0), step(nodes, keys, i1), step(nodes, keys, i2), step(nodes, keys, i3)
			i4, i5, i6, i7 = step(nodes, keys, i4), step(nodes, keys, i5), step(nodes, keys, i6), step(nodes, keys, i7)
		}
		before := laneSum(i0, i1, i2, i3, i4, i5, i6, i7)
		i0, i1, i2, i3 = step(nodes, keys, i0), step(nodes, keys, i1), step(nodes, keys, i2), step(nodes, keys, i3)
		i4, i5, i6, i7 = step(nodes, keys, i4), step(nodes, keys, i5), step(nodes, keys, i6), step(nodes, keys, i7)
		if laneSum(i0, i1, i2, i3, i4, i5, i6, i7) == before {
			return nodes[i0].key + nodes[i1].key + nodes[i2].key + nodes[i3].key +
				nodes[i4].key + nodes[i5].key + nodes[i6].key + nodes[i7].key
		}
	}
}

// laneSum adds eight node indices without wrapping.
func laneSum(i0, i1, i2, i3, i4, i5, i6, i7 int32) int64 {
	return int64(i0) + int64(i1) + int64(i2) + int64(i3) + int64(i4) + int64(i5) + int64(i6) + int64(i7)
}

// step moves one lane from node i to the child the row's key selects;
// a leaf selects itself. Which way a split sends a row depends on the
// row — left and right are equally common over the forest — so the
// choice must not be a jump, whose misprediction would throw away the
// other seven lanes' work in flight with its own. A conditional move
// is the short way, but the Go compiler will not emit one whose result
// is the address of the next load (the amd64 kernel is assembly for
// that reason); here the `if` is a flag materialised as 0 or 1 (SETGE)
// and the right child is added under its mask.
func step(nodes []node, keys []int32, i int32) int32 {
	nd := &nodes[i]
	var right int32
	if keys[nd.feature] >= nd.key {
		right = 1
	}
	return i + 1 + (nd.right-i-1)&-right
}

// The MCBRF001 wire format: magic, dim and tree count as int64, then per
// tree a node count (int64) and its nodes as {Feature int32, Threshold
// float32, Left int32, Right int32, Class int8}, little-endian, child
// indices relative to the tree, a leaf being Left = Right = -1. The flat
// array is derived from it on load and rendered back into it on save.
const (
	marshalMagic  = "MCBRF001"
	wireNodeBytes = 17
)

// MarshalBinary serializes the trained forest into one buffer sized for
// it; WriteTo streams the same bytes.
func (c *Classifier) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	buf := make([]byte, 0, len(marshalMagic)+16+8*len(c.roots)+wireNodeBytes*len(c.nodes))
	return c.appendForest(buf, nil), nil
}

// WriteTo implements io.WriterTo: it writes the bytes of MarshalBinary
// through one buffer of about ml.SpillBytes.
func (c *Classifier) WriteTo(w io.Writer) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return ml.StreamTo(w, c.appendForest)
}

// appendForest appends the serialized forest to b, through spill
// (ml.Spill).
func (c *Classifier) appendForest(b []byte, spill func([]byte) []byte) []byte {
	le := binary.LittleEndian
	b = append(b, marshalMagic...)
	b = le.AppendUint64(b, uint64(c.dim))
	b = le.AppendUint64(b, uint64(len(c.roots)))
	for t, base := range c.roots {
		end := int32(len(c.nodes))
		if t+1 < len(c.roots) {
			end = c.roots[t+1]
		}
		b = le.AppendUint64(b, uint64(end-base))
		for i := base; i < end; i++ {
			nd := c.nodes[i]
			feature, threshold, left, right, class := nd.feature, nd.threshold(), i+1-base, nd.right-base, int32(0)
			if nd.right == i {
				feature, threshold, left, right, class = 0, 0, -1, -1, nd.class()
			}
			b = le.AppendUint32(b, uint32(feature))
			b = le.AppendUint32(b, math.Float32bits(threshold))
			b = le.AppendUint32(b, uint32(left))
			b = le.AppendUint32(b, uint32(right))
			b = ml.Spill(append(b, byte(class)), spill)
		}
	}
	return b
}

// UnmarshalBinary restores a forest serialized by MarshalBinary. The
// payload comes from disk, so everything Predict will trust is checked
// here: split features inside [0, dim), no split threshold NaN (the
// order keys hold against every threshold but that one), leaf classes
// binary, and every tree a strict preorder layout (left child next,
// right child where the left subtree ends, nothing unreachable, so
// every split's children lie above it and every walk ends) — a corrupt
// file is rejected at load, never discovered as a panic, a spin or a
// wrong turn on the serving path, where the amd64 kernel reads the
// array without bounds checks. A leaf becomes a node pointing to
// itself (see node).
func (c *Classifier) UnmarshalBinary(b []byte) error {
	le := binary.LittleEndian
	if len(b) < len(marshalMagic)+16 || string(b[:len(marshalMagic)]) != marshalMagic {
		return fmt.Errorf("rf: bad model header")
	}
	b = b[len(marshalMagic):]
	dim, ntrees := int64(le.Uint64(b)), int64(le.Uint64(b[8:]))
	b = b[16:]
	// Every tree takes at least its count and one node.
	if dim <= 0 || dim > math.MaxInt32 || ntrees <= 0 || ntrees > int64(len(b))/(8+wireNodeBytes) {
		return fmt.Errorf("rf: corrupt model dimensions")
	}
	nodes := make([]node, 0, len(b)/wireNodeBytes)
	roots := make([]int32, 0, ntrees)
	// pending holds, for each split whose left subtree is being read,
	// where its right subtree must start.
	var pending []int32
	for t := int64(0); t < ntrees; t++ {
		if len(b) < 8 {
			return fmt.Errorf("rf: tree %d: truncated", t)
		}
		nn := int64(le.Uint64(b))
		b = b[8:]
		if nn <= 0 || nn > int64(len(b))/wireNodeBytes || int64(len(nodes))+nn > math.MaxInt32 {
			return fmt.Errorf("rf: tree %d: corrupt node count", t)
		}
		base := int32(len(nodes))
		roots = append(roots, base)
		pending = pending[:0]
		for i := int32(0); i < int32(nn); i++ {
			feature := int32(le.Uint32(b))
			threshold := math.Float32frombits(le.Uint32(b[4:]))
			left, right := int32(le.Uint32(b[8:])), int32(le.Uint32(b[12:]))
			class := int8(b[16])
			b = b[wireNodeBytes:]
			if left != -1 {
				if feature < 0 || int64(feature) >= dim {
					return fmt.Errorf("rf: tree %d node %d: feature %d outside [0, %d)", t, i, feature, dim)
				}
				if left != i+1 || right <= left || int64(right) >= nn {
					return fmt.Errorf("rf: tree %d node %d: children (%d, %d) break preorder", t, i, left, right)
				}
				if threshold != threshold {
					return fmt.Errorf("rf: tree %d node %d: NaN threshold", t, i)
				}
				pending = append(pending, right)
				nd := splitNode(threshold, feature)
				nd.right = base + right
				nodes = append(nodes, nd)
				continue
			}
			if class != 0 && class != 1 {
				return fmt.Errorf("rf: tree %d node %d: class %d", t, i, class)
			}
			// After a leaf comes the innermost pending right subtree, or
			// nothing at all.
			next := int32(nn)
			if n := len(pending); n > 0 {
				next, pending = pending[n-1], pending[:n-1]
			}
			if next != i+1 {
				return fmt.Errorf("rf: tree %d node %d: leaf breaks preorder", t, i)
			}
			nodes = append(nodes, leafNode(int(class), base+i))
		}
	}
	c.mu.Lock()
	c.dim, c.nodes, c.roots = int(dim), nodes, roots
	c.mu.Unlock()
	return nil
}
