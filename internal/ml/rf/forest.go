package rf

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

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
	// or the end; right-child indices are absolute. Predict trusts every
	// index in it; Train builds it and UnmarshalBinary validates it.
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

// Train implements ml.Classifier: it quantizes the data once, then grows
// each tree on an independent bootstrap sample. Trees are grown in
// parallel across cores; every tree's randomness derives from the forest
// seed so training is deterministic regardless of scheduling.
func (c *Classifier) Train(x [][]float32, y []job.Label) error {
	if err := ml.CheckTrainingData(x, y); err != nil {
		return err
	}
	// Drop unlabeled rows: the characterizer may have skipped some jobs.
	xs := make([][]float32, 0, len(x))
	classes := make([]int8, 0, len(y))
	for i, l := range y {
		if l == job.Unknown {
			continue
		}
		xs = append(xs, x[i])
		classes = append(classes, int8(classIndex(l)))
	}
	if len(xs) == 0 {
		return fmt.Errorf("rf: no labeled training rows")
	}

	dim := len(xs[0])
	cfg := c.cfg
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures > dim {
		cfg.MaxFeatures = int(math.Sqrt(float64(dim)))
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	if cfg.MaxDepth <= 0 {
		// "Unlimited" with a hard safety cap: beyond ~2^24 samples no
		// real split path is longer than this.
		cfg.MaxDepth = 40
	}

	binr := newBinner(xs, cfg.Bins)
	binned := binr.quantize(xs)

	trees := make([][]node, cfg.NumTrees)
	master := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < cfg.NumTrees; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer func() { <-sem; wg.Done() }()
			rng := stats.NewRNG(seeds[t])
			idx := make([]int, len(xs))
			for i := range idx {
				idx[i] = rng.Intn(len(xs)) // bootstrap with replacement
			}
			tb := &treeBuilder{
				cfg:     cfg,
				dim:     dim,
				binned:  binned,
				classes: classes,
				binr:    binr,
				rng:     rng,
				idx:     idx,
			}
			trees[t] = tb.build()
		}(t)
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
			if nodes[i].feature >= 0 {
				nodes[i].right += base
			}
		}
	}

	c.mu.Lock()
	c.dim, c.nodes, c.roots = dim, nodes, roots
	c.mu.Unlock()
	return nil
}

// voteBlock is how many queries walk a tree back to back: the votes of
// a block live in a fixed array on the worker's stack, so Predict
// allocates nothing but its result.
const voteBlock = 1024

// Predict implements ml.Classifier: majority vote across trees, ties
// resolved to memory-bound (the majority class of the domain). The
// batch is split once across workers; each walks its chunk tree-outer,
// query-inner, so one tree's nodes stay in L1 while the queries stream
// through it.
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
	nodes, roots := c.nodes, c.roots
	linalg.ParallelFor(len(x), func(lo, hi int) {
		var votes [voteBlock]int32 // trees voting compute-bound, per query
		for ; lo < hi; lo += voteBlock {
			rows := x[lo:min(hi, lo+voteBlock)]
			clear(votes[:len(rows)])
			for _, root := range roots {
				for q, row := range rows {
					i := root
					nd := &nodes[i]
					for nd.feature >= 0 {
						if row[nd.feature] < nd.threshold {
							i++
						} else {
							i = nd.right
						}
						nd = &nodes[i]
					}
					votes[q] += ^nd.feature
				}
			}
			for q := range rows {
				class := 0
				if 2*int(votes[q]) > len(roots) {
					class = 1
				}
				out[lo+q] = classLabel(class)
			}
		}
	})
	return out, nil
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

// MarshalBinary serializes the trained forest.
func (c *Classifier) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	le := binary.LittleEndian
	buf := make([]byte, 0, len(marshalMagic)+16+8*len(c.roots)+wireNodeBytes*len(c.nodes))
	buf = append(buf, marshalMagic...)
	buf = le.AppendUint64(buf, uint64(c.dim))
	buf = le.AppendUint64(buf, uint64(len(c.roots)))
	for t, base := range c.roots {
		end := int32(len(c.nodes))
		if t+1 < len(c.roots) {
			end = c.roots[t+1]
		}
		buf = le.AppendUint64(buf, uint64(end-base))
		for i := base; i < end; i++ {
			nd := c.nodes[i]
			feature, left, right, class := nd.feature, i+1-base, nd.right-base, int32(0)
			if nd.feature < 0 {
				feature, left, right, class = 0, -1, -1, ^nd.feature
			}
			buf = le.AppendUint32(buf, uint32(feature))
			buf = le.AppendUint32(buf, math.Float32bits(nd.threshold))
			buf = le.AppendUint32(buf, uint32(left))
			buf = le.AppendUint32(buf, uint32(right))
			buf = append(buf, byte(class))
		}
	}
	return buf, nil
}

// UnmarshalBinary restores a forest serialized by MarshalBinary. The
// payload comes from disk, so everything Predict will trust is checked
// here: split features inside [0, dim), leaf classes binary, and every
// tree a strict preorder layout (left child next, right child where the
// left subtree ends, nothing unreachable) — a corrupt file is rejected
// at load, never discovered as a panic or a spin on the serving path.
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
				pending = append(pending, right)
				nodes = append(nodes, node{threshold: threshold, feature: feature, right: base + right})
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
			nodes = append(nodes, leafNode(int(class)))
		}
	}
	c.mu.Lock()
	c.dim, c.nodes, c.roots = int(dim), nodes, roots
	c.mu.Unlock()
	return nil
}
