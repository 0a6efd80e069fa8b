package knn

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/stats"
)

// cluster data: memory-bound points near (0,0), compute-bound near (10,10).
func clusters() ([][]float32, []job.Label) {
	var x [][]float32
	var y []job.Label
	for i := 0; i < 20; i++ {
		d := float32(i) * 0.01
		x = append(x, []float32{d, -d})
		y = append(y, job.MemoryBound)
		x = append(x, []float32{10 + d, 10 - d})
		y = append(y, job.ComputeBound)
	}
	return x, y
}

func TestPredictSeparableClusters(t *testing.T) {
	c := New(DefaultConfig())
	x, y := clusters()
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := c.Predict([][]float32{{0.5, 0.5}, {9.5, 9.5}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound || preds[1] != job.ComputeBound {
		t.Errorf("preds = %v", preds)
	}
}

func TestPredictBeforeTrain(t *testing.T) {
	c := New(DefaultConfig())
	if _, err := c.Predict([][]float32{{1}}); !errors.Is(err, ml.ErrNotTrained) {
		t.Errorf("err = %v, want ErrNotTrained", err)
	}
}

func TestPredictDimMismatch(t *testing.T) {
	c := New(DefaultConfig())
	x, y := clusters()
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict([][]float32{{1, 2, 3}}); err == nil {
		t.Error("accepted wrong query dimension")
	}
}

func TestDuplicateGrouping(t *testing.T) {
	c := New(Config{K: 5, P: 2})
	// 100 identical memory points + 100 identical compute points: two
	// groups, 200 stored points.
	var x [][]float32
	var y []job.Label
	for i := 0; i < 100; i++ {
		x = append(x, []float32{0, 0})
		y = append(y, job.MemoryBound)
		x = append(x, []float32{5, 5})
		y = append(y, job.ComputeBound)
	}
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if c.Groups() != 2 {
		t.Errorf("groups = %d, want 2", c.Groups())
	}
	if c.TrainSize() != 200 {
		t.Errorf("train size = %d, want 200", c.TrainSize())
	}
	preds, err := c.Predict([][]float32{{0.1, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound {
		t.Errorf("pred = %v", preds[0])
	}
}

func TestGroupMajorityVote(t *testing.T) {
	// One group at distance 0 with mixed labels: majority must win and
	// its multiplicity must outvote a nearer... farther group.
	c := New(Config{K: 5, P: 2})
	x := [][]float32{{0, 0}, {0, 0}, {0, 0}, {1, 1}, {1, 1}}
	y := []job.Label{job.ComputeBound, job.ComputeBound, job.MemoryBound, job.MemoryBound, job.MemoryBound}
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := c.Predict([][]float32{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// k=5 votes: group (0,0) contributes 3 (2 comp, 1 mem), group (1,1)
	// contributes 2 mem → 3 mem vs 2 comp.
	if preds[0] != job.MemoryBound {
		t.Errorf("pred = %v, want memory-bound", preds[0])
	}
}

func TestKOneExactMatch(t *testing.T) {
	c := New(Config{K: 1, P: 2})
	x, y := clusters()
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := c.Predict(x[:10])
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if p != y[i] {
			t.Errorf("k=1 self-prediction %d: %v, want %v", i, p, y[i])
		}
	}
}

func TestTrainDropsUnknownLabels(t *testing.T) {
	c := New(DefaultConfig())
	x := [][]float32{{0, 0}, {1, 1}, {2, 2}}
	y := []job.Label{job.MemoryBound, job.Unknown, job.MemoryBound}
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if c.TrainSize() != 2 {
		t.Errorf("train size = %d, want 2 (unknown dropped)", c.TrainSize())
	}
}

func TestTrainValidation(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.Train(nil, nil); err == nil {
		t.Error("accepted empty training set")
	}
	if err := c.Train([][]float32{{1}}, []job.Label{job.Unknown}); err == nil {
		t.Error("accepted all-unknown training set")
	}
}

// TestTrainRejectsZeroWidthVectors: vectors with no feature are an
// error, not a model of empty rows.
func TestTrainRejectsZeroWidthVectors(t *testing.T) {
	x := [][]float32{{}, {}}
	if err := New(DefaultConfig()).Train(x, []job.Label{job.MemoryBound, job.ComputeBound}); err == nil {
		t.Error("Train accepted zero-width vectors")
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

// trainBytes fits cfg's model on (x, y) and returns it marshaled.
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

// TestAliasedRowsTrainLikeCopies is the differential test of the
// grouping's keying by backing array: rows that share k vectors and the
// same rows each in an array of its own marshal the same model, groups
// and index included, with unlabeled rows and content-equal vectors in
// separate arrays mixed in.
func TestAliasedRowsTrainLikeCopies(t *testing.T) {
	for _, mode := range []IndexMode{IndexOff, IndexOn} {
		for _, k := range []int{1, 9, 400} {
			x, y := benchData(2000, 16, 2000/k, uint64(k))
			for i := range y {
				if i%13 == 0 {
					y[i] = job.Unknown
				}
				if i%17 == 0 { // equal content, its own array
					x[i] = slices.Clone(x[i])
				}
			}
			cfg := Config{K: 5, P: 2, Index: IndexConfig{Mode: mode, NClusters: 8, Seed: 1}}
			if got, want := trainBytes(t, cfg, x, y), trainBytes(t, cfg, deepCopy(x), y); !bytes.Equal(got, want) {
				t.Fatalf("index %s, %d vectors: aliased rows marshal %d bytes that differ from the copies' %d",
					mode, k, len(got), len(want))
			}
		}
	}
}

func TestConfigFallbacks(t *testing.T) {
	c := New(Config{})
	if c.Config().K != 5 || c.Config().P != 2 {
		t.Errorf("fallback config = %+v", c.Config())
	}
}

// referencePredict is a naive exact KNN over the raw (non-deduplicated)
// training set, used as an oracle for the grouped implementation.
func referencePredict(x [][]float32, y []job.Label, q []float32, k int) job.Label {
	type nb struct {
		d float64
		y job.Label
	}
	var ns []nb
	for i := range x {
		ns = append(ns, nb{linalg.SqEuclidean(q, x[i]), y[i]})
	}
	sort.SliceStable(ns, func(a, b int) bool { return ns[a].d < ns[b].d })
	if k > len(ns) {
		k = len(ns)
	}
	votes := map[job.Label]int{}
	for _, n := range ns[:k] {
		votes[n.y]++
	}
	if votes[job.ComputeBound] > votes[job.MemoryBound] {
		return job.ComputeBound
	}
	if votes[job.MemoryBound] > votes[job.ComputeBound] {
		return job.MemoryBound
	}
	return job.Unknown // tie: implementation-defined
}

func TestAgreesWithReferenceOnDistinctPoints(t *testing.T) {
	// With all-distinct training points (no duplicate-group ambiguity)
	// and no vote ties, the grouped implementation must match naive KNN.
	rng := stats.NewRNG(5)
	const n, dim = 60, 4
	x := make([][]float32, n)
	y := make([]job.Label, n)
	for i := range x {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.Float64() * 10)
		}
		x[i] = v
		if rng.Bool(0.5) {
			y[i] = job.MemoryBound
		} else {
			y[i] = job.ComputeBound
		}
	}
	c := New(Config{K: 5, P: 2})
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 50)
	for i := range queries {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.Float64() * 10)
		}
		queries[i] = v
	}
	preds, err := c.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := referencePredict(x, y, q, 5)
		if want == job.Unknown {
			continue // tie: either answer is acceptable
		}
		if preds[i] != want {
			t.Errorf("query %d: got %v, reference %v", i, preds[i], want)
		}
	}
}

func TestMinkowskiP1Path(t *testing.T) {
	c := New(Config{K: 3, P: 1})
	x, y := clusters()
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := c.Predict([][]float32{{0, 0}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound || preds[1] != job.ComputeBound {
		t.Errorf("L1 preds = %v", preds)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := New(Config{K: 3, P: 2})
	x, y := clusters()
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
	if restored.Config().K != 3 || restored.TrainSize() != c.TrainSize() || restored.Groups() != c.Groups() {
		t.Errorf("restored shape differs: %+v", restored.Config())
	}
	queries := [][]float32{{0.3, 0.1}, {9, 11}, {5, 5}}
	a, err := c.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("prediction %d differs after round trip", i)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("accepted garbage")
	}
	if err := c.UnmarshalBinary([]byte("MCBKNN03 but short")); err == nil {
		t.Error("accepted truncated payload")
	}
}

func TestPredictionAlwaysBinary(t *testing.T) {
	c := New(DefaultConfig())
	x, y := clusters()
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	f := func(a, b int8) bool {
		q := []float32{float32(a) / 4, float32(b) / 4}
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
	if New(DefaultConfig()).Name() != "knn" {
		t.Error("wrong name")
	}
}

func TestLargeKClampedToN(t *testing.T) {
	c := New(Config{K: 100, P: 2})
	x := [][]float32{{0}, {1}, {2}}
	y := []job.Label{job.MemoryBound, job.MemoryBound, job.ComputeBound}
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := c.Predict([][]float32{{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != job.MemoryBound {
		t.Errorf("pred = %v (majority of all 3 points)", preds[0])
	}
}

func TestHashVecCollisionResistance(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := []float32{float32(i), float32(i) * 0.5, -float32(i)}
		h := hashVec(v)
		if seen[h] {
			t.Fatalf("hash collision at %d", i)
		}
		seen[h] = true
	}
}

func TestEqualVec(t *testing.T) {
	if !equalVec([]float32{1, 2}, []float32{1, 2}) {
		t.Error("equal vectors reported unequal")
	}
	if equalVec([]float32{1, 2}, []float32{1, 3}) || equalVec([]float32{1}, []float32{1, 2}) {
		t.Error("unequal vectors reported equal")
	}
	// NaN bit patterns compare equal bitwise — grouping treats them as
	// the same key, which is the desired dedup semantics.
	nan := float32(math.NaN())
	if !equalVec([]float32{nan}, []float32{nan}) {
		t.Error("identical NaN bit patterns should group together")
	}
}

func ExampleClassifier() {
	c := New(DefaultConfig())
	x := [][]float32{{0, 0}, {0.1, 0}, {5, 5}, {5, 5.1}}
	y := []job.Label{job.MemoryBound, job.MemoryBound, job.ComputeBound, job.ComputeBound}
	if err := c.Train(x, y); err != nil {
		panic(err)
	}
	preds, _ := c.Predict([][]float32{{0.2, 0.1}})
	fmt.Println(preds[0])
	// Output: memory-bound
}
