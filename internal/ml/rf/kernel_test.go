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

// growRef appends a random subtree in preorder. shape picks how it
// splits: "chain" keeps one child a leaf all the way down, "bushy"
// splits both sides until depth runs out or a coin says stop.
func growRef(rng *stats.RNG, nodes []refNode, dim, depth int, shape string) []refNode {
	if depth == 0 || (shape == "bushy" && rng.Intn(4) == 0) {
		return append(nodes, refNode{Left: -1, Right: -1, Class: int8(rng.Intn(2))})
	}
	id := len(nodes)
	nodes = append(nodes, refNode{
		Feature:   int32(rng.Intn(dim)),
		Threshold: float32(rng.Intn(8)) / 8, // coarse: queries hit thresholds exactly
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
	nodes = growRef(rng, nodes, dim, leftDepth, shape)
	nodes[id].Right = int32(len(nodes))
	return growRef(rng, nodes, dim, rightDepth, shape)
}

func randomRef(seed uint64, dim, ntrees, depth int, shape string) refForest {
	rng := stats.NewRNG(seed)
	f := refForest{dim: dim, trees: make([][]refNode, ntrees)}
	for i := range f.trees {
		f.trees[i] = growRef(rng, nil, dim, depth, shape)
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
// tree-major kernel: over seeded random forests of every awkward shape
// and batch sizes on both sides of the vote block and of the per-worker
// chunk, Predict equals the per-query walker row for row — as loaded,
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
				for _, n := range []int{0, 1, 63, 64, 65, 1000, 1025, 2049} { // 2049: three vote blocks on one worker
					x := randomQueries(uint64(n), n, ref.dim)
					assertMatchesRef(t, "loaded", c, ref, x)
					assertMatchesRef(t, "round-tripped", restored, ref, x)
				}
			})
		}
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
