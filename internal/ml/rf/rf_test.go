package rf

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/stats"
)

// xorData is not linearly separable: a single split cannot solve it, a
// tree of depth 2 can.
func xorData(n int, rng *stats.RNG) ([][]float32, []job.Label) {
	var x [][]float32
	var y []job.Label
	for i := 0; i < n; i++ {
		a := rng.Bool(0.5)
		b := rng.Bool(0.5)
		v := []float32{0.1, 0.1}
		if a {
			v[0] = 0.9
		}
		if b {
			v[1] = 0.9
		}
		// Jitter so the binner has spread.
		v[0] += float32(rng.Float64()) * 0.05
		v[1] += float32(rng.Float64()) * 0.05
		x = append(x, v)
		if a != b {
			y = append(y, job.ComputeBound)
		} else {
			y = append(y, job.MemoryBound)
		}
	}
	return x, y
}

func TestForestLearnsXOR(t *testing.T) {
	rng := stats.NewRNG(1)
	x, y := xorData(600, rng)
	cfg := DefaultConfig()
	cfg.NumTrees = 30
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	testX, testY := xorData(200, rng)
	preds, err := c.Predict(testX)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range preds {
		if preds[i] == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(preds)); acc < 0.95 {
		t.Errorf("XOR accuracy = %.3f, want > 0.95", acc)
	}
}

func TestPredictBeforeTrain(t *testing.T) {
	c := New(DefaultConfig())
	if _, err := c.Predict([][]float32{{1}}); !errors.Is(err, ml.ErrNotTrained) {
		t.Errorf("err = %v", err)
	}
}

func TestDimMismatch(t *testing.T) {
	rng := stats.NewRNG(2)
	x, y := xorData(100, rng)
	c := New(DefaultConfig())
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict([][]float32{{1, 2, 3}}); err == nil {
		t.Error("accepted wrong dimension")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := stats.NewRNG(3)
	x, y := xorData(300, rng)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	cfg.Seed = 77
	a := New(cfg)
	b := New(cfg)
	if err := a.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(x, y); err != nil {
		t.Fatal(err)
	}
	q, _ := xorData(100, rng)
	pa, err := a.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed produced different forests (query %d)", i)
		}
	}
}

func TestTrainDropsUnknownLabels(t *testing.T) {
	x := [][]float32{{0, 0}, {1, 1}, {0.1, 0.1}, {0.9, 0.9}}
	y := []job.Label{job.MemoryBound, job.Unknown, job.MemoryBound, job.ComputeBound}
	c := New(Config{NumTrees: 5})
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if len(c.roots) != 5 {
		t.Errorf("trees = %d", len(c.roots))
	}
	// All-unknown must fail.
	if err := c.Train(x[:2], []job.Label{job.Unknown, job.Unknown}); err == nil {
		t.Error("accepted all-unknown labels")
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	// Single-class data: every tree must be a single leaf.
	x := [][]float32{{0, 1}, {2, 3}, {4, 5}}
	y := []job.Label{job.ComputeBound, job.ComputeBound, job.ComputeBound}
	c := New(Config{NumTrees: 3})
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := c.Predict([][]float32{{100, -5}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.ComputeBound {
		t.Errorf("pred = %v", preds[0])
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.roots) != 3 || len(c.nodes) != 3 {
		t.Fatalf("%d trees over %d nodes, want 3 single-node trees", len(c.roots), len(c.nodes))
	}
	for i, nd := range c.nodes {
		if nd.right != int32(i) {
			t.Errorf("tree %d is not a single leaf", i)
		}
	}
}

func TestConfigFallbacks(t *testing.T) {
	c := New(Config{NumTrees: -1, Bins: 1000})
	if cfg := c.cfg; cfg.NumTrees != 100 || cfg.Bins != 32 {
		t.Errorf("fallbacks = %+v", cfg)
	}
}

func TestMaxDepthOne(t *testing.T) {
	rng := stats.NewRNG(4)
	x, y := xorData(300, rng)
	cfg := DefaultConfig()
	cfg.NumTrees = 10
	cfg.MaxDepth = 1
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	// Depth-1 stumps cannot learn XOR: accuracy stays near chance.
	preds, err := c.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range preds {
		if preds[i] == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(preds)); acc > 0.8 {
		t.Errorf("depth-1 forest learned XOR (acc %.3f) — depth cap ignored?", acc)
	}
}

func TestBinner(t *testing.T) {
	x := [][]float32{{0, 5}, {10, 5}, {5, 5}}
	b := newBinner(x, 4)
	if got := b.binOf(0, 0); got != 0 {
		t.Errorf("bin of min = %d", got)
	}
	if got := b.binOf(0, 10); got != 3 {
		t.Errorf("bin of max = %d (must clamp into last bin)", got)
	}
	if got := b.binOf(0, -100); got != 0 {
		t.Errorf("bin below range = %d", got)
	}
	// Constant feature: inv == 0 ⇒ everything in bin 0.
	if got := b.binOf(1, 5); got != 0 {
		t.Errorf("constant feature bin = %d", got)
	}
	// Threshold of split s is the lower edge of bin s+1.
	if th := b.threshold(0, 1); th != 5 {
		t.Errorf("threshold = %g, want 5", th)
	}
	// Vectors 0 and 3 share a binned image; row 3 carries the other
	// class, and row 4 is vector 1 again under it.
	rows := b.distinct(append(x, []float32{1, 5}), []int32{0, 1, 2, 3, 1}, []uint8{0, 0, 0, 1, 1})
	if want := []uint8{0, 0, 3, 0, 2, 0}; !bytes.Equal(rows.bins, want) {
		t.Errorf("distinct binned rows = %v, want %v", rows.bins, want)
	}
	if want := []int32{0, 2, 4, 1, 3}; !slices.Equal(rows.slot, want) {
		t.Errorf("slots = %v, want %v", rows.slot, want)
	}
}

func TestGini(t *testing.T) {
	if g := giniOf([2]int32{5, 5}, 10); g != 0.5 {
		t.Errorf("gini balanced = %g", g)
	}
	if g := giniOf([2]int32{10, 0}, 10); g != 0 {
		t.Errorf("gini pure = %g", g)
	}
	if g := giniOf([2]int32{0, 0}, 0); g != 0 {
		t.Errorf("gini empty = %g", g)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := stats.NewRNG(5)
	x, y := xorData(300, rng)
	cfg := DefaultConfig()
	cfg.NumTrees = 8
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(DefaultConfig())
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(restored.roots) != 8 {
		t.Errorf("restored trees = %d", len(restored.roots))
	}
	q, _ := xorData(50, rng)
	a, err := c.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.UnmarshalBinary([]byte("nope")); err == nil {
		t.Error("accepted garbage header")
	}
	if err := c.UnmarshalBinary([]byte("MCBRF001xxxxxxx")); err == nil {
		t.Error("accepted truncated payload")
	}
}

func TestPredictionAlwaysBinary(t *testing.T) {
	rng := stats.NewRNG(6)
	x, y := xorData(200, rng)
	cfg := DefaultConfig()
	cfg.NumTrees = 5
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	f := func(a, b int8) bool {
		q := []float32{float32(a)/64 + 0.5, float32(b)/64 + 0.5}
		preds, err := c.Predict([][]float32{q})
		if err != nil {
			return false
		}
		return preds[0] == job.MemoryBound || preds[0] == job.ComputeBound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestName(t *testing.T) {
	if New(DefaultConfig()).Name() != "rf" {
		t.Error("wrong name")
	}
}
