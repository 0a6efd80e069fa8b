package rf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// The reference the flat kernel is tested against: the MCBRF001 wire
// nodes with both children explicit, walked one query at a time, one
// tree at a time — the shape the forest had before it went flat. It
// shares nothing with forest.go but the wire format.
type refNode struct {
	Feature   int32
	Threshold float32
	Left      int32 // -1 for a leaf
	Right     int32
	Class     int8
}

type refForest struct {
	dim   int
	trees [][]refNode
}

// refWalk is the class of the leaf tree t sends x to.
func refWalk(t []refNode, x []float32) int8 {
	i := int32(0)
	for t[i].Left >= 0 {
		if x[t[i].Feature] < t[i].Threshold {
			i = t[i].Left
		} else {
			i = t[i].Right
		}
	}
	return t[i].Class
}

func (f refForest) predict(x []float32) job.Label {
	votes := [numClasses]int{}
	for _, t := range f.trees {
		votes[refWalk(t, x)]++
	}
	if votes[1] > votes[0] {
		return job.ComputeBound
	}
	return job.MemoryBound
}

func (f refForest) marshal() []byte {
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	binary.Write(&buf, binary.LittleEndian, int64(f.dim))
	binary.Write(&buf, binary.LittleEndian, int64(len(f.trees)))
	for _, t := range f.trees {
		binary.Write(&buf, binary.LittleEndian, int64(len(t)))
		binary.Write(&buf, binary.LittleEndian, t)
	}
	return buf.Bytes()
}

func parseRef(t testing.TB, blob []byte) refForest {
	t.Helper()
	r := bytes.NewReader(blob[len(marshalMagic):])
	var dim, ntrees int64
	binary.Read(r, binary.LittleEndian, &dim)
	binary.Read(r, binary.LittleEndian, &ntrees)
	f := refForest{dim: int(dim), trees: make([][]refNode, ntrees)}
	for i := range f.trees {
		var nn int64
		binary.Read(r, binary.LittleEndian, &nn)
		f.trees[i] = make([]refNode, nn)
		if err := binary.Read(r, binary.LittleEndian, f.trees[i]); err != nil {
			t.Fatalf("reference parse: tree %d: %v", i, err)
		}
	}
	return f
}

// coarseThresholds are the split values of the random forests unless a
// test brings its own: few enough that queries hit them exactly.
var coarseThresholds = []float32{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}

// growRef appends a random subtree in preorder, its split values drawn
// from thresholds. shape picks how it splits: "chain" keeps one child a
// leaf all the way down, "bushy" splits both sides until depth runs out
// or a coin says stop.
func growRef(rng *stats.RNG, nodes []refNode, dim, depth int, shape string, thresholds []float32) []refNode {
	if depth == 0 || (shape == "bushy" && rng.Intn(4) == 0) {
		return append(nodes, refNode{Left: -1, Right: -1, Class: int8(rng.Intn(2))})
	}
	id := len(nodes)
	nodes = append(nodes, refNode{
		Feature:   int32(rng.Intn(dim)),
		Threshold: thresholds[rng.Intn(len(thresholds))],
		Left:      int32(id + 1),
	})
	leftDepth, rightDepth := depth-1, depth-1
	if shape == "chain" {
		if rng.Bool(0.5) {
			leftDepth = 0
		} else {
			rightDepth = 0
		}
	}
	nodes = growRef(rng, nodes, dim, leftDepth, shape, thresholds)
	nodes[id].Right = int32(len(nodes))
	return growRef(rng, nodes, dim, rightDepth, shape, thresholds)
}

func randomRef(seed uint64, dim, ntrees, depth int, shape string) refForest {
	return saltedRef(seed, dim, ntrees, depth, shape, coarseThresholds)
}

func saltedRef(seed uint64, dim, ntrees, depth int, shape string, thresholds []float32) refForest {
	rng := stats.NewRNG(seed)
	f := refForest{dim: dim, trees: make([][]refNode, ntrees)}
	for i := range f.trees {
		f.trees[i] = growRef(rng, nil, dim, depth, shape, thresholds)
	}
	return f
}

func randomQueries(seed uint64, n, dim int) [][]float32 {
	rng := stats.NewRNG(seed)
	x := make([][]float32, n)
	for i := range x {
		x[i] = make([]float32, dim)
		for d := range x[i] {
			switch rng.Intn(10) {
			case 0:
				x[i][d] = float32(rng.Intn(8)) / 8 // exactly on a threshold
			case 1:
				x[i][d] = float32(math.NaN())
			default:
				x[i][d] = float32(rng.Float64())*1.5 - 0.25
			}
		}
	}
	return x
}

func assertMatchesRef(t *testing.T, what string, c *Classifier, ref refForest, x [][]float32) {
	t.Helper()
	got, err := c.Predict(x)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) != len(x) {
		t.Fatalf("%s: %d labels for %d queries", what, len(got), len(x))
	}
	for i := range x {
		if want := ref.predict(x[i]); got[i] != want {
			t.Fatalf("%s: query %d of %d: kernel %v, reference walker %v", what, i, len(x), got[i], want)
		}
	}
}

// TestKernelMatchesReferenceWalker is the differential test of the
// kernel: over seeded random forests of every awkward shape and batch
// sizes on both sides of the row block and of the per-worker chunk,
// Predict equals the per-query walker row for row — as loaded,
// and again after a marshal round trip, which must also reproduce the
// payload byte for byte.
func TestKernelMatchesReferenceWalker(t *testing.T) {
	forests := map[string]refForest{
		"single-leaf trees": randomRef(1, 5, 7, 0, "bushy"),
		"stumps":            randomRef(2, 5, 10, 1, "chain"), // even count: ties
		"deep chains":       randomRef(3, 9, 11, 60, "chain"),
		"bushy":             randomRef(4, 16, 25, 9, "bushy"),
		"one tree":          randomRef(5, 3, 1, 4, "bushy"),
	}
	for name, ref := range forests {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				blob := ref.marshal()
				c := New(DefaultConfig())
				if err := c.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				again, err := c.MarshalBinary()
				if err != nil || !bytes.Equal(again, blob) {
					t.Fatalf("marshal round trip changed the payload (err %v)", err)
				}
				restored := New(DefaultConfig())
				if err := restored.UnmarshalBinary(again); err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{0, 1, 63, 64, 65, 1000, 1025, 2049} {
					x := randomQueries(uint64(n), n, ref.dim)
					assertMatchesRef(t, "loaded", c, ref, x)
					assertMatchesRef(t, "round-tripped", restored, ref, x)
				}
			})
		}
	}
}

// The values on which an integer order key and the float compare could
// part: both NaNs, both infinities, both zeros, the smallest and the
// largest magnitudes of either sign. Every one but the NaNs is also a
// split threshold of the salted forests, so rows sit exactly on
// thresholds of every kind.
var (
	negNaN = math.Float32frombits(0xffc00001)
	salts  = []float32{
		float32(math.NaN()), negNaN,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
		0.5, -0.5, 1, -1,
	}
	saltedThresholds = salts[2:]
)

// saltedQueries draws rows half of whose values are salts.
func saltedQueries(seed uint64, n, dim int) [][]float32 {
	rng := stats.NewRNG(seed)
	x := make([][]float32, n)
	for i := range x {
		x[i] = make([]float32, dim)
		for d := range x[i] {
			if rng.Bool(0.5) {
				x[i][d] = salts[rng.Intn(len(salts))]
			} else {
				x[i][d] = float32(rng.Float64()*4 - 2)
			}
		}
	}
	return x
}

// saltRows is one row of dim copies of every salt: whole rows of NaN,
// ±Inf, ±0 and ±MaxFloat32, where every key sits at an end of the key
// range or on one of its folds.
func saltRows(dim int) [][]float32 {
	x := make([][]float32, len(salts))
	for i, v := range salts {
		x[i] = make([]float32, dim)
		for d := range x[i] {
			x[i][d] = v
		}
	}
	return x
}

// assertWalksAgree holds the two walk backends to each other and to the
// reference walker, lane by lane: every tree of c is walked in each of
// the eight lanes by walk8 (the assembly kernel on amd64) and by
// walk8Go, the other seven lanes parked on a leaf, and the lane's vote
// must be the reference walker's for that tree; then every full group
// of eight trees must count the same votes on both.
func assertWalksAgree(t *testing.T, c *Classifier, ref refForest, x [][]float32) {
	t.Helper()
	park := int32(-1)
	for i, nd := range c.nodes {
		if nd.right == int32(i) {
			park = int32(i)
			break
		}
	}
	if park < 0 {
		t.Fatal("a forest without a leaf")
	}
	keys := make([]int32, c.dim)
	for q, row := range x {
		for f, v := range row {
			keys[f] = rowKey(v)
		}
		var group [lanes]int32
		for l := range group {
			group[l] = park
		}
		// Seven parked lanes vote what eight do, less one park vote.
		parked := walk8Go(c.nodes, keys, &group) - c.nodes[park].class()
		for tr, root := range c.roots {
			want := int32(refWalk(ref.trees[tr], row))
			for l := range group {
				group[l] = root
				asm, gen := walk8(c.nodes, keys, &group)-parked, walk8Go(c.nodes, keys, &group)-parked
				group[l] = park
				if asm != want || gen != want {
					t.Fatalf("row %d, tree %d in lane %d: walk8 %d, walk8Go %d, reference %d", q, tr, l, asm, gen, want)
				}
			}
		}
		for tr := 0; tr+lanes <= len(c.roots); tr += lanes {
			g := (*[lanes]int32)(c.roots[tr:])
			if asm, gen := walk8(c.nodes, keys, g), walk8Go(c.nodes, keys, g); asm != gen {
				t.Fatalf("row %d, trees %d–%d: walk8 counts %d votes, walk8Go %d", q, tr, tr+lanes-1, asm, gen)
			}
		}
	}
}

// TestKernelMatchesReferenceOnSaltedInputs: the order keys send every
// row where the float compare sends it, and the two walk backends agree
// where the assembly one trusts its input most. Every tree count from 1
// to 17 (no group, one and two, with every leftover count) and 100;
// trees whose root is a leaf; 40-deep chains, and lone leaves beside
// them so that lanes of one group finish far apart; a dim-1 forest,
// whose leaves read the only key there is; batches on both sides of
// one and two row blocks; and rows that are one salt throughout, on
// which the walks are also compared lane by lane (assertWalksAgree).
func TestKernelMatchesReferenceOnSaltedInputs(t *testing.T) {
	const dim = 6
	counts := []int{100}
	for n := 1; n <= 17; n++ {
		counts = append(counts, n)
	}
	for _, ntrees := range counts {
		forests := map[string]refForest{
			"root is a leaf": saltedRef(uint64(ntrees), dim, ntrees, 0, "bushy", saltedThresholds),
			"bushy":          saltedRef(uint64(ntrees)+1, dim, ntrees, 7, "bushy", saltedThresholds),
			"depth 40":       saltedRef(uint64(ntrees)+2, dim, ntrees, 40, "chain", saltedThresholds),
			"dim 1":          saltedRef(uint64(ntrees)+4, 1, ntrees, 9, "bushy", saltedThresholds),
		}
		mixed := saltedRef(uint64(ntrees)+3, dim, ntrees, 40, "chain", saltedThresholds)
		for i := range mixed.trees {
			if i%3 == 1 {
				mixed.trees[i] = []refNode{{Left: -1, Right: -1, Class: int8(i % 2)}}
			}
		}
		forests["leaves beside depth 40"] = mixed
		for name, ref := range forests {
			t.Run(fmt.Sprintf("%s/trees=%d", name, ntrees), func(t *testing.T) {
				c := loadRef(t, ref)
				for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 1000} {
					assertMatchesRef(t, fmt.Sprintf("%d rows", n), c, ref, saltedQueries(uint64(n), n, ref.dim))
				}
				x := append(saltRows(ref.dim), saltedQueries(uint64(ntrees), 20, ref.dim)...)
				assertMatchesRef(t, "rows of one salt", c, ref, x)
				assertWalksAgree(t, c, ref, x)
			})
		}
	}
}

// TestRowKeyOrderIsFloatOrder checks the claim the kernel rests on,
// pair by pair: rowKey(v) < splitKey(t) exactly when v < t, for every
// salt against every salt that may be a threshold, and splitKey gives
// the threshold back bit for bit.
func TestRowKeyOrderIsFloatOrder(t *testing.T) {
	rng := stats.NewRNG(3)
	values := append([]float32(nil), salts...)
	for i := 0; i < 200; i++ {
		values = append(values, math.Float32frombits(uint32(rng.Uint64())))
	}
	for _, th := range values {
		if th != th {
			continue
		}
		nd := splitNode(th, 0)
		if got := nd.threshold(); math.Float32bits(got) != math.Float32bits(th) {
			t.Fatalf("threshold %g (%#x) came back as %g (%#x)", th, math.Float32bits(th), got, math.Float32bits(got))
		}
		for _, v := range values {
			if got, want := rowKey(v) < nd.key, v < th; got != want {
				t.Fatalf("v = %g (%#x), t = %g (%#x): keys say %v, floats say %v",
					v, math.Float32bits(v), th, math.Float32bits(th), got, want)
			}
		}
	}
}

// TestLoneRowKeysStayOnTheStack: the single-job request's Predict
// allocates its result and the fan-out closure, as it did before the
// kernel had keys to put anywhere; the keys of a row of the served
// dimension fit the worker's stack buffer.
func TestLoneRowKeysStayOnTheStack(t *testing.T) {
	const dim = 384
	ref := randomRef(6, dim, 100, 12, "chain")
	c := New(DefaultConfig())
	if err := c.UnmarshalBinary(ref.marshal()); err != nil {
		t.Fatal(err)
	}
	x := randomQueries(7, 1, dim)
	if n := testing.AllocsPerRun(200, func() { c.Predict(x) }); n > 2 {
		t.Fatalf("Predict of one %d-dim row allocates %v times, want ≤ 2", dim, n)
	}
}

// TestTrainedForestMatchesReferenceWalker closes the loop over Train:
// the forest it builds is one the kernel may trust, and what it
// marshals, walked by the reference, is what its own kernel predicts.
func TestTrainedForestMatchesReferenceWalker(t *testing.T) {
	rng := stats.NewRNG(8)
	x, y := xorData(500, rng)
	cfg := DefaultConfig()
	cfg.NumTrees = 16
	cfg.MaxFeatures = 2
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	assertKernelSafe(t, c)
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := xorData(1025, rng)
	assertMatchesRef(t, "trained", c, parseRef(t, blob), q)
}

// TestParentBlobLoadsAndPredictsAsRecorded pins the wire format: an
// MCBRF001 payload written before the forest went flat loads, predicts
// what its writer recorded and marshals back to the same bytes.
func TestParentBlobLoadsAndPredictsAsRecorded(t *testing.T) {
	blob, err := os.ReadFile("testdata/parent_pr12.mcbrf")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Queries [][]float32 `json:"queries"`
		Classes []string    `json:"classes"`
	}
	doc, err := os.ReadFile("testdata/parent_pr12.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &golden); err != nil || len(golden.Queries) == 0 {
		t.Fatalf("golden: %d queries, %v", len(golden.Queries), err)
	}
	c := New(DefaultConfig())
	if err := c.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(golden.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got {
		if l.String() != golden.Classes[i] {
			t.Errorf("query %d: %s, parent recorded %s", i, l, golden.Classes[i])
		}
	}
	if again, err := c.MarshalBinary(); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("re-marshaled payload differs from the parent's (err %v)", err)
	}
}

// voteForest is a forest of stumps whose votes are prescribed: tree t
// votes compute-bound for a row of kind A (1, 0) exactly where ones[t]
// is set and for a row of kind B (0, 1) exactly where it is not; a row
// of kind C (0, 0) gets no such vote and one of kind D (1, 1) all of
// them.
func voteForest(ones []bool) refForest {
	f := refForest{dim: 2, trees: make([][]refNode, len(ones))}
	for t, one := range ones {
		feature := int32(1)
		if one {
			feature = 0
		}
		f.trees[t] = []refNode{
			{Feature: feature, Threshold: 0.5, Left: 1, Right: 2},
			{Left: -1, Right: -1, Class: 0},
			{Left: -1, Right: -1, Class: 1},
		}
	}
	return f
}

// voteRows is n rows cycling through the four kinds, so that rows of one
// block are decided at different trees.
func voteRows(n int) [][]float32 {
	kinds := [][]float32{{1, 0}, {0, 1}, {0, 0}, {1, 1}}
	x := make([][]float32, n)
	for i := range x {
		x[i] = kinds[i%len(kinds)]
	}
	return x
}

// placements puts k set votes among n trees: in the first k, in the last
// k, and spread evenly.
func placements(n, k int) map[string][]bool {
	first, last, spread := make([]bool, n), make([]bool, n), make([]bool, n)
	for t := 0; t < n; t++ {
		first[t] = t < k
		last[t] = t >= n-k
		spread[t] = (t+1)*k/n > t*k/n
	}
	return map[string][]bool{"first": first, "last": last, "interleaved": spread}
}

func loadRef(t testing.TB, ref refForest) *Classifier {
	t.Helper()
	c := New(DefaultConfig())
	if err := c.UnmarshalBinary(ref.marshal()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecidedVoteMatchesFullVote walks the majority's edge: forests on
// both sides of a lane group and of an even count, compute-bound votes
// one short of half, exactly half, one past it, none and all — placed so
// that a row is decided at the first chance, only in the leftover trees,
// or never before the last tree — in batches on both sides of a row
// block. A row Predict stops walking early gets the full vote's label,
// and the exact tie stays memory-bound.
func TestDecidedVoteMatchesFullVote(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 99, 100, 101} {
		for _, k := range []int{n/2 - 1, n / 2, n/2 + 1, 0, n} {
			k = min(max(k, 0), n)
			for place, ones := range placements(n, k) {
				ref := voteForest(ones)
				c := loadRef(t, ref)
				what := fmt.Sprintf("%d trees, %d votes %s", n, k, place)
				for _, batch := range []int{1, 63, 64, 65, 200} {
					assertMatchesRef(t, fmt.Sprintf("%s, %d rows", what, batch), c, ref, voteRows(batch))
				}
				if got, _ := c.Predict(voteRows(2)); 2*k == n && (got[0] != job.MemoryBound || got[1] != job.MemoryBound) {
					t.Fatalf("%s: a tie of %d against %d is %v, want memory-bound", what, k, n-k, got)
				}
			}
		}
	}
}

// blockWalks runs predictBlock over x a block at a time, as Predict
// does, and returns the labels and the (row, tree) walks made.
func blockWalks(c *Classifier, x [][]float32) ([]job.Label, int) {
	out := make([]job.Label, len(x))
	keys := make([]int32, rowBlock*c.dim)
	walks := 0
	for lo := 0; lo < len(x); lo += rowBlock {
		hi := min(len(x), lo+rowBlock)
		walks += predictBlock(c.nodes, c.roots, c.dim, keys, x[lo:hi], out[lo:hi])
	}
	return out, walks
}

// TestBlockWalksAreTheStopRule is the proof that the stop happens, and
// where: a row of a unanimous 100-tree forest is walked down 56 trees
// (seven groups: the first count past 50 trees), a row the forest splits
// 50/50, the compute-bound vote first in every pair, down all 100 (with
// one tree to go it has 50 votes and the last could be the 51st), and on
// forests of every shape each row is walked down exactly decidedAfter
// trees — the figure BenchmarkPredict reports as trees/row.
func TestBlockWalksAreTheStopRule(t *testing.T) {
	const rows = 150
	x, a, b := voteRows(rows), [][]float32{{1, 0}}, [][]float32{{0, 1}}
	for _, tc := range []struct {
		name string
		ones []bool
		rows [][]float32
		want int
	}{
		{"unanimous, compute-bound", placements(100, 100)["first"], x, 56 * rows},
		{"unanimous, memory-bound", placements(100, 0)["first"], x, 56 * rows},
		{"50/50", placements(100, 50)["interleaved"], b, 100},
		{"101 trees, 50 votes first", placements(101, 50)["first"], a, 101},
		{"101 trees, 51 votes first", placements(101, 51)["first"], a, 56},
	} {
		c := loadRef(t, voteForest(tc.ones))
		if _, got := blockWalks(c, tc.rows); got != tc.want {
			t.Errorf("%s: %d rows took %d walks, want %d", tc.name, len(tc.rows), got, tc.want)
		}
	}

	forests := map[string]refForest{
		"bushy, 100 trees":      randomRef(11, 8, 100, 6, "bushy"),
		"leaves, 99 trees":      randomRef(12, 3, 99, 0, "bushy"),
		"chains, 17 trees":      randomRef(13, 5, 17, 20, "chain"),
		"stumps, 8 trees":       randomRef(14, 4, 8, 1, "chain"),
		"stumps, 7 trees":       randomRef(15, 4, 7, 1, "chain"),
		"51 of 101 votes, last": voteForest(placements(101, 51)["last"]),
		"8 of 15 votes, spread": voteForest(placements(15, 8)["interleaved"]),
	}
	for name, ref := range forests {
		c := loadRef(t, ref)
		q := randomQueries(16, 200, ref.dim)
		want := 0
		for _, row := range q {
			want += decidedAfter(c, row)
		}
		labels, got := blockWalks(c, q)
		if got != want {
			t.Errorf("%s: %d walks, the stop rule says %d (of %d)", name, got, want, len(q)*len(c.roots))
		}
		for i, row := range q {
			if l := ref.predict(row); labels[i] != l {
				t.Fatalf("%s: row %d: %v after a decided vote, %v after the full one", name, i, labels[i], l)
			}
		}
	}
}

// validRef is a small forest every corruption below starts from: tree 0
// is split(split(leaf, leaf), leaf), tree 1 a single leaf.
func validRef() refForest {
	return refForest{dim: 3, trees: [][]refNode{
		{
			{Feature: 2, Threshold: 0.5, Left: 1, Right: 4},
			{Feature: 0, Threshold: 0.25, Left: 2, Right: 3},
			{Left: -1, Right: -1, Class: 0},
			{Left: -1, Right: -1, Class: 1},
			{Left: -1, Right: -1, Class: 1},
		},
		{{Left: -1, Right: -1, Class: 1}},
	}}
}

// TestUnmarshalRejectsInvalidForest: everything Predict trusts is
// checked at load. Each payload here used to load cleanly and then
// panic (index out of range) or spin (a cycle) on the serving path.
func TestUnmarshalRejectsInvalidForest(t *testing.T) {
	if err := New(DefaultConfig()).UnmarshalBinary(validRef().marshal()); err != nil {
		t.Fatalf("the uncorrupted forest must load: %v", err)
	}
	corruptions := map[string]func(f *refForest){
		"feature == dim":            func(f *refForest) { f.trees[0][0].Feature = 3 },
		"feature negative":          func(f *refForest) { f.trees[0][1].Feature = -1 },
		"left skips a node":         func(f *refForest) { f.trees[0][0].Left = 2 },
		"left points at itself":     func(f *refForest) { f.trees[0][1].Left = 1 },
		"right points at itself":    func(f *refForest) { f.trees[0][1].Right = 1 },
		"right points backward":     func(f *refForest) { f.trees[0][1].Right = 0 },
		"right equals left":         func(f *refForest) { f.trees[0][0].Right = 1 },
		"right past the tree":       func(f *refForest) { f.trees[0][0].Right = 5 },
		"right into the next tree":  func(f *refForest) { f.trees[0][0].Right = 6 },
		"right inside left subtree": func(f *refForest) { f.trees[0][0].Right = 3 },
		"NaN threshold":             func(f *refForest) { f.trees[0][1].Threshold = float32(math.NaN()) },
		"negative NaN threshold":    func(f *refForest) { f.trees[0][0].Threshold = negNaN },
		"leaf class 2":              func(f *refForest) { f.trees[0][3].Class = 2 },
		"leaf class negative":       func(f *refForest) { f.trees[1][0].Class = -1 },
		"last node is a split": func(f *refForest) {
			f.trees[0][4] = refNode{Feature: 0, Left: 5, Right: 6}
		},
		"unreachable trailing node": func(f *refForest) {
			f.trees[1] = append(f.trees[1], refNode{Left: -1, Right: -1})
		},
		"zero dim":      func(f *refForest) { f.dim = 0 },
		"negative dim":  func(f *refForest) { f.dim = -3 },
		"no trees":      func(f *refForest) { f.trees = nil },
		"an empty tree": func(f *refForest) { f.trees[1] = nil },
	}
	for name, corrupt := range corruptions {
		f := validRef()
		corrupt(&f)
		if err := New(DefaultConfig()).UnmarshalBinary(f.marshal()); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}

	blob := validRef().marshal()
	for n := 0; n < len(blob); n++ {
		if err := New(DefaultConfig()).UnmarshalBinary(blob[:n]); err == nil {
			t.Errorf("payload truncated to %d of %d bytes loaded", n, len(blob))
		}
	}
	huge := func(off int) []byte {
		b := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(b[off:], math.MaxInt64)
		return b
	}
	for name, b := range map[string][]byte{
		"dim 2^63-1":        huge(len(marshalMagic)),
		"tree count 2^63-1": huge(len(marshalMagic) + 8),
		"node count 2^63-1": huge(len(marshalMagic) + 16),
	} {
		if err := New(DefaultConfig()).UnmarshalBinary(b); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

// assertKernelSafe checks, node by node, everything the amd64 kernel
// reads without a bounds check: the roots ascend from 0 and cut the
// array into non-empty trees; in each tree a leaf points to itself with
// feature 0 and a leaf key, and a split has a feature inside [0, dim), a
// key above both leaf keys and a right child above itself inside its
// tree — so every step stays in its tree and every walk ends.
func assertKernelSafe(t *testing.T, c *Classifier) {
	t.Helper()
	if len(c.roots) == 0 || c.roots[0] != 0 {
		t.Fatalf("roots %v do not start the array", c.roots)
	}
	for tr, base := range c.roots {
		end := int32(len(c.nodes))
		if tr+1 < len(c.roots) {
			end = c.roots[tr+1]
		}
		if end <= base {
			t.Fatalf("tree %d: nodes [%d, %d)", tr, base, end)
		}
		for i := base; i < end; i++ {
			nd := c.nodes[i]
			if nd.right == i {
				if nd.feature != 0 || (nd.key != leafKey && nd.key != leafKey+1) {
					t.Fatalf("tree %d: leaf %d is %+v", tr, i, nd)
				}
			} else if nd.right <= i || nd.right >= end || nd.feature < 0 || int(nd.feature) >= c.dim || nd.key <= leafKey+1 {
				t.Fatalf("tree %d [%d, %d): split %d is %+v", tr, base, end, i, nd)
			}
		}
	}
}

// FuzzForestModel: whatever bytes arrive, UnmarshalBinary either rejects
// them or yields a forest Predict can walk — a corrupt model file must
// fail at load, never panic or spin on the serving path, and never
// reach the kernel with an index it would follow out of its tree
// (assertKernelSafe) — and a forest that loads survives a marshal round
// trip unchanged.
func FuzzForestModel(f *testing.F) {
	valid, err := os.ReadFile("testdata/parent_pr12.mcbrf")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(validRef().marshal())
	nanSplit := validRef()
	nanSplit.trees[0][0].Threshold = float32(math.NaN())
	f.Add(nanSplit.marshal())
	f.Add([]byte("nope"))
	f.Add([]byte("MCBRF001xxxxxxx"))
	for _, n := range []int{len(marshalMagic), len(marshalMagic) + 16, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, bit := range []int{8*len(marshalMagic) + 1, 8 * (len(marshalMagic) + 24), 8*(len(marshalMagic)+24+8) + 3, 8*(len(valid)-1) + 7} {
		flipped := bytes.Clone(valid)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(DefaultConfig())
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		if c.dim > 1<<16 {
			t.Skip("valid, but a zero query this wide is not worth allocating")
		}
		assertKernelSafe(t, c)
		zero := [][]float32{make([]float32, c.dim)}
		want, err := c.Predict(zero)
		if err != nil {
			t.Fatalf("loaded forest cannot predict: %v", err)
		}
		again, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := New(DefaultConfig())
		if err := restored.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-marshaled forest rejected: %v", err)
		}
		if got, err := restored.Predict(zero); err != nil || got[0] != want[0] {
			t.Fatalf("round trip changed the prediction: %v vs %v (err %v)", got, want, err)
		}
	})
}

// FuzzPredictMatchesReference: whatever forest shape, width, thresholds
// and row values the fuzzer finds — the two byte strings are read as raw
// float32 bit patterns, so every NaN payload, denormal and signed zero
// is within reach — Predict answers as the reference walker does, and
// the two walk backends agree lane by lane (assertWalksAgree).
func FuzzPredictMatchesReference(f *testing.F) {
	le := binary.LittleEndian
	floats := func(vs ...float32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	// dim is 1 + the second argument mod 8: 3 is the width of four.
	f.Add(uint64(1), uint8(3), uint8(9), uint8(5), false, floats(saltedThresholds...), floats(salts...))
	f.Add(uint64(2), uint8(3), uint8(100), uint8(40), true, floats(0, float32(math.Copysign(0, -1))), floats(salts...))
	f.Add(uint64(3), uint8(3), uint8(8), uint8(0), false, []byte{}, floats(0.3, 0.6, negNaN))
	f.Add(uint64(4), uint8(3), uint8(17), uint8(12), true, floats(math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32), []byte{1, 0, 0, 0, 1, 0, 0, 128})
	// The majority's edge: lone leaves and stumps vote on a coin, so about
	// half of each of these forests votes either way.
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 99, 100, 101} {
		f.Add(uint64(n), uint8(3), uint8(n-1), uint8(0), false, []byte{}, floats(0.3, 0.6, 0.1, 0.9))
		f.Add(uint64(n)+200, uint8(3), uint8(n-1), uint8(1), true, floats(0.5), floats(0.3, 0.6, 0.1, 0.9, 0.7, 0.2, 0.8, 0.4))
	}
	// Where the assembly kernel trusts its input most: one feature, so a
	// leaf reads the only key; roots that are leaves; 40-deep chains;
	// every tree count from 1 to 17 — all on rows that are one salt
	// throughout (saltRows), at widths 1 and 4.
	saltBytes := func(dim int) []byte {
		var b []byte
		for _, row := range saltRows(dim) {
			b = append(b, floats(row...)...)
		}
		return b
	}
	f.Add(uint64(5), uint8(0), uint8(16), uint8(9), false, floats(saltedThresholds...), saltBytes(1))
	f.Add(uint64(6), uint8(3), uint8(16), uint8(0), false, floats(saltedThresholds...), saltBytes(4))
	f.Add(uint64(7), uint8(3), uint8(16), uint8(40), true, floats(saltedThresholds...), saltBytes(4))
	for n := 1; n <= 17; n++ {
		f.Add(uint64(n)+300, uint8(3*(n%2)), uint8(n-1), uint8(6), n%3 == 0, floats(saltedThresholds...), saltBytes(1+3*(n%2)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, width, ntrees, depth uint8, chain bool, rawThresholds, rawRows []byte) {
		dim := 1 + int(width)%8
		thresholds := append([]float32(nil), coarseThresholds...)
		for ; len(rawThresholds) >= 4; rawThresholds = rawThresholds[4:] {
			if v := math.Float32frombits(le.Uint32(rawThresholds)); v == v {
				thresholds = append(thresholds, v)
			}
		}
		shape := "bushy"
		if chain {
			shape = "chain"
		}
		// A bushy tree doubles with every level; keep it a few thousand nodes.
		if !chain && depth > 10 {
			depth = 10
		}
		ref := saltedRef(seed, dim, 1+int(ntrees)%120, int(depth)%48, shape, thresholds)
		c := New(DefaultConfig())
		if err := c.UnmarshalBinary(ref.marshal()); err != nil {
			t.Fatalf("generated forest rejected: %v", err)
		}
		x := [][]float32{make([]float32, dim)}
		for d := 0; len(rawRows) >= 4; rawRows = rawRows[4:] {
			x[len(x)-1][d] = math.Float32frombits(le.Uint32(rawRows))
			if d++; d == dim {
				x, d = append(x, make([]float32, dim)), 0
			}
		}
		assertMatchesRef(t, "fuzzed", c, ref, x)
		assertWalksAgree(t, c, ref, x[:min(len(x), 16)]) // eight walks a tree a row
	})
}

// The reference Train is tested against: the trainer it replaced, kept
// as it was written — one bootstrap index per drawn sample, every sample
// visited at every node, one histogram pass per candidate feature. It
// shares the binner, the node encoding and the wire format with
// forest.go and nothing of the tree builder.
type refBuilder struct {
	cfg     Config
	dim     int
	binned  []uint8 // n*dim quantized training matrix
	classes []int8  // n training class ids
	binr    *binner
	rng     *stats.RNG

	idx   []int // the bootstrap sample, partitioned in place during growth
	nodes []node
	feats []int
	hist  []int32
}

func (tb *refBuilder) build() []node {
	tb.feats = make([]int, tb.dim)
	for i := range tb.feats {
		tb.feats[i] = i
	}
	tb.hist = make([]int32, tb.cfg.Bins*numClasses)
	tb.grow(0, len(tb.idx), 0)
	return tb.nodes
}

func (tb *refBuilder) grow(lo, hi, depth int) {
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

	leaf := func() { tb.nodes = append(tb.nodes, leafNode(majority, int32(len(tb.nodes)))) }
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

func (tb *refBuilder) bestSplit(lo, hi int, total [numClasses]int32) (feat, splitBin int, gain float64) {
	n := float64(hi - lo)
	parentGini := giniOf(total, n)
	feat, splitBin = -1, -1

	mtry := tb.cfg.MaxFeatures
	for k := 0; k < mtry; k++ {
		r := k + tb.rng.Intn(tb.dim-k)
		tb.feats[k], tb.feats[r] = tb.feats[r], tb.feats[k]
		f := tb.feats[k]

		h := tb.hist
		for i := range h {
			h[i] = 0
		}
		for _, i := range tb.idx[lo:hi] {
			b := tb.binned[i*tb.dim+f]
			h[int(b)*numClasses+int(tb.classes[i])]++
		}

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

func (tb *refBuilder) partition(lo, hi, feat, splitBin int) int {
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

// refTrain fits cfg's forest on (x, y) with the reference builder, one
// tree after the other, and returns it marshaled.
func refTrain(t testing.TB, cfg Config, x [][]float32, y []job.Label) []byte {
	t.Helper()
	c := New(cfg)
	cfg = c.cfg
	var xs [][]float32
	var classes []int8
	for i, l := range y {
		if l != job.Unknown {
			xs = append(xs, x[i])
			classes = append(classes, int8(classIndex(l)))
		}
	}
	dim := len(xs[0])
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures > dim {
		cfg.MaxFeatures = max(1, int(math.Sqrt(float64(dim))))
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 40
	}
	binr := newBinner(xs, cfg.Bins)
	binned := make([]uint8, 0, len(xs)*dim)
	for _, row := range xs {
		for f, v := range row {
			binned = append(binned, uint8(binr.binOf(f, v)))
		}
	}
	master := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	c.dim = dim
	for _, seed := range seeds {
		rng := stats.NewRNG(seed)
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = rng.Intn(len(xs))
		}
		tb := &refBuilder{cfg: cfg, dim: dim, binned: binned, classes: classes, binr: binr, rng: rng, idx: idx}
		base := int32(len(c.nodes))
		c.roots = append(c.roots, base)
		for _, nd := range tb.build() {
			nd.right += base
			c.nodes = append(c.nodes, nd)
		}
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func trainBytes(t testing.TB, cfg Config, x [][]float32, y []job.Label) []byte {
	t.Helper()
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWeightedBuilderMatchesReferenceTrainer is the differential test of
// the fit: Train, which folds a bootstrap sample into weights on the
// distinct binned rows, marshals the forest the per-sample reference
// grows — byte for byte, over seeds (of the data and of the forest) and
// every hyper-parameter that reads a sample count or shapes the split
// search, on rows that are mostly duplicates (some under both labels,
// some unlabeled), on rows that are near-duplicates, and at the two
// ends: no two rows alike, all rows alike.
func TestWeightedBuilderMatchesReferenceTrainer(t *testing.T) {
	const dim = 48
	configs := map[string]func(*Config){
		"default":             func(*Config) {},
		"min leaf 3, split 8": func(c *Config) { c.MinSamplesLeaf, c.MinSamplesSplit = 3, 8 },
		"max depth 4":         func(c *Config) { c.MaxDepth = 4 },
		"8 bins":              func(c *Config) { c.Bins = 8 },
		"128 bins":            func(c *Config) { c.Bins = 128 },
		"one feature a split": func(c *Config) { c.MaxFeatures = 1 },
		"every feature":       func(c *Config) { c.MaxFeatures = dim },
	}
	one := make([]float32, dim)
	one[3], one[7] = 0.5, -1
	alike := make([][]float32, 40)
	mixed, same := make([]job.Label, len(alike)), make([]job.Label, len(alike))
	for i := range alike {
		alike[i] = one
		mixed[i], same[i] = job.MemoryBound, job.ComputeBound
		if i%3 == 0 {
			mixed[i] = job.ComputeBound
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		dupX, dupY := servedData(600, 5, dim, seed)
		for i := range dupY {
			if i%11 == 0 {
				dupY[i] = job.Unknown
			}
		}
		deepX, deepY := deepData(300, dim, seed)
		uniqueX, uniqueY := benchData(200, dim, seed)
		sets := []struct {
			name string
			x    [][]float32
			y    []job.Label
		}{
			{"5x duplicates", dupX, dupY},
			{"deepData", deepX, deepY},
			{"all unique", uniqueX, uniqueY},
			{"all alike, both labels", alike, mixed},
			{"all alike, one label", alike, same},
		}
		for name, apply := range configs {
			cfg := DefaultConfig()
			cfg.NumTrees = 3
			cfg.Seed = seed
			apply(&cfg)
			for _, s := range sets {
				if got, want := trainBytes(t, cfg, s.x, s.y), refTrain(t, cfg, s.x, s.y); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %s, %s: Train marshals %d bytes that differ from the reference trainer's %d",
						seed, name, s.name, len(got), len(want))
				}
			}
		}
	}
}

// TestTrainedForestBytesUnchanged pins the fit against the builder it
// replaced: the FNV-64a of two served-dimension forests (ten trees each,
// on the s30 shape — 25 000 sparse rows, every vector five times — and
// on deepData), recorded from Train at the commit before the weighted
// builder. A change that moves either moves every model file.
func TestTrainedForestBytesUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	servedX, servedY := servedData(25000, 5, 384, 1)
	deepX, deepY := deepData(10000, 384, 4)
	for _, s := range []struct {
		name string
		x    [][]float32
		y    []job.Label
		want uint64
	}{
		{"served", servedX, servedY, 0x33bfdd966f90f3a9},
		{"deep", deepX, deepY, 0x22a867a57e5a3444},
	} {
		h := fnv.New64a()
		h.Write(trainBytes(t, cfg, s.x, s.y))
		if got := h.Sum64(); got != s.want {
			t.Errorf("%s: forest hashes to %#x, the parent's to %#x", s.name, got, s.want)
		}
	}
}

// deepCopy gives every row of x a backing array of its own.
func deepCopy(x [][]float32) [][]float32 {
	out := make([][]float32, len(x))
	for i, v := range x {
		out[i] = slices.Clone(v)
	}
	return out
}

// TestAliasedRowsTrainLikeCopies is the differential test of the fit's
// keying by backing array: rows that share k vectors — the encoder's
// output for a window of batch submissions — and the same rows each in
// an array of its own marshal the same forest, byte for byte, with
// unlabeled rows and content-equal vectors in separate arrays mixed in.
func TestAliasedRowsTrainLikeCopies(t *testing.T) {
	const dim = 48
	for seed := uint64(1); seed <= 5; seed++ {
		for _, k := range []int{1, 7, 120} {
			x, y := servedData(600, 600/k, dim, seed)
			for i := range y {
				if i%13 == 0 {
					y[i] = job.Unknown
				}
				if i%17 == 0 { // equal content, its own array
					x[i] = slices.Clone(x[i])
				}
			}
			cfg := DefaultConfig()
			cfg.NumTrees = 4
			cfg.Seed = seed
			if got, want := trainBytes(t, cfg, x, y), trainBytes(t, cfg, deepCopy(x), y); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %d vectors: aliased rows marshal %d bytes that differ from the copies' %d",
					seed, k, len(got), len(want))
			}
		}
	}
}

// TestAliasedFitAllocatesPerVector: a fit over 25 000 rows that alias
// 5 000 vectors bins each vector once, so the whole fit allocates less
// than one byte a row and feature — what binning every row would
// reserve on its own.
func TestAliasedFitAllocatesPerVector(t *testing.T) {
	const rows, vecs, dim = 25000, 5000, 384
	x, y := servedData(rows, rows/vecs, dim, 1)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	c := New(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= rows*dim {
		t.Errorf("fit allocated %d B, want under %d (rows × dim)", got, rows*dim)
	}
	t.Logf("fit allocated %d B", got)
}

// TestTrainRejectsZeroWidthVectors: vectors with no feature are an
// error, not a panic in the split search.
func TestTrainRejectsZeroWidthVectors(t *testing.T) {
	x := [][]float32{{}, {}}
	if err := New(DefaultConfig()).Train(x, []job.Label{job.MemoryBound, job.ComputeBound}); err == nil {
		t.Error("Train accepted zero-width vectors")
	}
}

// FuzzTrainMatchesReference: whatever small dataset and hyper-parameters
// the fuzzer finds — rows are drawn from a handful of values per
// feature, so binned images collide at every rate from never to always,
// and a share of them (alias/256) is an earlier row's vector itself —
// Train marshals what the reference trainer does.
func FuzzTrainMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(4), uint8(3), uint8(0), uint8(2), uint8(1), uint8(0), uint8(32), uint8(0))
	f.Add(uint64(2), uint8(200), uint8(9), uint8(2), uint8(3), uint8(8), uint8(3), uint8(2), uint8(8), uint8(128))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), uint8(1), uint8(1), uint8(2), uint8(255))
	f.Add(uint64(4), uint8(255), uint8(16), uint8(40), uint8(0), uint8(0), uint8(0), uint8(16), uint8(255), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, levels, maxDepth, minSplit, minLeaf, maxFeatures, bins, alias uint8) {
		rows, d, values := 1+int(n), 1+int(dim)%16, 1+int(levels)
		rng := stats.NewRNG(seed)
		x := make([][]float32, rows)
		y := make([]job.Label, rows)
		for i := range x {
			if alias > 0 && i > 0 && rng.Intn(256) < int(alias) {
				x[i] = x[rng.Intn(i)]
			} else {
				x[i] = make([]float32, d)
				for f := range x[i] {
					x[i][f] = float32(rng.Intn(values)) / float32(values)
				}
			}
			y[i] = job.Label(rng.Intn(3)) // Unknown, MemoryBound or ComputeBound
		}
		y[0] = job.ComputeBound // at least one labeled row
		cfg := Config{
			NumTrees:        2,
			MaxDepth:        int(maxDepth),
			MinSamplesSplit: int(minSplit),
			MinSamplesLeaf:  int(minLeaf),
			MaxFeatures:     int(maxFeatures),
			Bins:            int(bins),
			Seed:            seed,
		}
		if got, want := trainBytes(t, cfg, x, y), refTrain(t, cfg, x, y); !bytes.Equal(got, want) {
			t.Fatalf("Train marshals %d bytes that differ from the reference trainer's %d", len(got), len(want))
		}
	})
}
