package rf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
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

func (f refForest) predict(x []float32) job.Label {
	votes := [numClasses]int{}
	for _, t := range f.trees {
		i := int32(0)
		for t[i].Left >= 0 {
			if x[t[i].Feature] < t[i].Threshold {
				i = t[i].Left
			} else {
				i = t[i].Right
			}
		}
		votes[t[i].Class]++
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

// TestKernelMatchesReferenceOnSaltedInputs: the order keys send every
// row where the float compare sends it. Tree counts on both sides of a
// lane group (and one that is all leftover), trees that are a lone
// leaf next to trees at the depth cap so that lanes of one group finish
// far apart, batches on both sides of one and two row blocks.
func TestKernelMatchesReferenceOnSaltedInputs(t *testing.T) {
	const dim = 6
	for _, ntrees := range []int{1, 7, 8, 9, 100} {
		forests := map[string]refForest{
			"root is a leaf": saltedRef(uint64(ntrees), dim, ntrees, 0, "bushy", saltedThresholds),
			"bushy":          saltedRef(uint64(ntrees)+1, dim, ntrees, 7, "bushy", saltedThresholds),
			"depth 40":       saltedRef(uint64(ntrees)+2, dim, ntrees, 40, "chain", saltedThresholds),
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
				c := New(DefaultConfig())
				if err := c.UnmarshalBinary(ref.marshal()); err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 1000} {
					assertMatchesRef(t, fmt.Sprintf("%d rows", n), c, ref, saltedQueries(uint64(n), n, dim))
				}
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
// what a fitted forest marshals, walked by the reference, is what its
// own kernel predicts.
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

// FuzzForestModel: whatever bytes arrive, UnmarshalBinary either rejects
// them or yields a forest Predict can walk — a corrupt model file must
// fail at load, never panic or spin on the serving path — and a forest
// that loads survives a marshal round trip unchanged.
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

// FuzzPredictMatchesReference: whatever forest shape, thresholds and
// row values the fuzzer finds — the two byte strings are read as raw
// float32 bit patterns, so every NaN payload, denormal and signed zero
// is within reach — Predict answers as the reference walker does.
func FuzzPredictMatchesReference(f *testing.F) {
	le := binary.LittleEndian
	floats := func(vs ...float32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(uint64(1), uint8(9), uint8(5), false, floats(saltedThresholds...), floats(salts...))
	f.Add(uint64(2), uint8(100), uint8(40), true, floats(0, float32(math.Copysign(0, -1))), floats(salts...))
	f.Add(uint64(3), uint8(8), uint8(0), false, []byte{}, floats(0.3, 0.6, negNaN))
	f.Add(uint64(4), uint8(17), uint8(12), true, floats(math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32), []byte{1, 0, 0, 0, 1, 0, 0, 128})
	f.Fuzz(func(t *testing.T, seed uint64, ntrees, depth uint8, chain bool, rawThresholds, rawRows []byte) {
		const dim = 4
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
	})
}
