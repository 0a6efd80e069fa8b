package knn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/ivf"
	"mcbound/internal/stats"
)

// trainSet builds rows unique training vectors of dim float32s with
// continuous random values (ties between distinct vectors have measure
// zero, which the exactness property below depends on) and random
// labels, deterministic in seed.
func trainSet(rows, dim int, seed uint64) ([][]float32, []job.Label) {
	rng := stats.NewRNG(seed)
	x := make([][]float32, rows)
	y := make([]job.Label, rows)
	for i := range x {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.Float64()*20 - 10)
		}
		x[i] = v
		if rng.Float64() < 0.5 {
			y[i] = job.MemoryBound
		} else {
			y[i] = job.ComputeBound
		}
	}
	return x, y
}

// TestIndexedVoteIdenticalToBrute is the exactness property: with
// nprobe == nclusters and a rerank pool covering every group, the IVF
// path scans and re-ranks exactly the same candidates as brute force,
// so predictions must be identical on random (tie-free) data.
func TestIndexedVoteIdenticalToBrute(t *testing.T) {
	prop := func(seed uint64) bool {
		const rows, dim, nclusters = 160, 8, 7
		x, y := trainSet(rows, dim, seed)

		brute := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: IndexOff}})
		indexed := New(Config{K: 5, P: 2, Index: IndexConfig{
			Mode:      IndexOn,
			NClusters: nclusters,
			NProbe:    nclusters, // probe everything …
			Rerank:    rows,      // … and re-rank everything: exact by construction
			Seed:      seed,
		}})
		if err := brute.Train(x, y); err != nil {
			t.Fatal(err)
		}
		if err := indexed.Train(x, y); err != nil {
			t.Fatal(err)
		}
		if indexed.VectorIndex() == nil {
			t.Fatal("IndexOn did not build an index")
		}

		queries, _ := trainSet(60, dim, seed^0xabcdef)
		want, err := brute.Predict(queries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := indexed.Predict(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d query %d: indexed %v, brute %v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFullProbeEqualsBruteForce pins the neighbour sets themselves, at
// the served dimension: probing every cell, the index returns exactly
// what scanGroups returns — the same groups in the same order at the
// same distances, bit for bit (the re-rank and the exact scan measure a
// row with the same summation order, under either linalg backend) — when
// the re-rank pool holds every group, which is exact by construction,
// and also at the default pool, which holds the k nearest only as far
// as the int8 codes rank them near: on rows clustered like the
// encoder's they do, for every one of these queries.
func TestFullProbeEqualsBruteForce(t *testing.T) {
	const rows, dim, apps, k, nclusters = 1500, 384, 150, 5, 40
	rng := stats.NewRNG(17)
	centres, _ := trainSet(apps, dim, 18)
	x := make([][]float32, rows)
	y := make([]job.Label, rows)
	for i := range x {
		x[i] = make([]float32, dim)
		for d, c := range centres[i%apps] {
			x[i][d] = c + float32(rng.Norm())
		}
		y[i] = job.MemoryBound
	}
	queries, _ := trainSet(128, dim, 19)
	for i := 0; i < 128; i++ { // and as many next to a training row
		q := slices.Clone(x[rng.Intn(rows)])
		for d := range q {
			q[d] += float32(0.1 * rng.Norm())
		}
		queries = append(queries, q)
	}
	for name, rerank := range map[string]int{"pool of every group": rows, "default pool": 0} {
		c := New(Config{K: k, P: 2, Index: IndexConfig{
			Mode: IndexOn, NClusters: nclusters, NProbe: nclusters, Rerank: rerank, Seed: 3,
		}})
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		ix := c.index
		if ix == nil || ix.NProbe() != ix.Clusters() || ix.Rerank() < k {
			t.Fatalf("%s: index %v is not at full probe with a pool of at least k", name, ix)
		}
		for i, q := range queries {
			got, want := ix.Search(q, k, nil), c.scanGroups(q, k, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, query %d: index %v, brute force %v", name, i, got, want)
			}
		}
	}
}

// TestQuantizedMatchesExactOnSeparatedClusters checks the approximate
// regime: at default probe/rerank knobs on well-separated label
// clusters, the int8+rerank path must agree with exact predictions.
func TestQuantizedMatchesExactOnSeparatedClusters(t *testing.T) {
	const rows, dim = 600, 12
	rng := stats.NewRNG(99)
	// Two label regions far apart relative to the jitter.
	x := make([][]float32, rows)
	y := make([]job.Label, rows)
	for i := range x {
		v := make([]float32, dim)
		center := float32(-40)
		y[i] = job.MemoryBound
		if i%2 == 1 {
			center = 40
			y[i] = job.ComputeBound
		}
		for d := range v {
			v[d] = center + float32(rng.Norm())
		}
		x[i] = v
	}

	brute := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: IndexOff}})
	indexed := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: IndexOn, Seed: 7}})
	if err := brute.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if err := indexed.Train(x, y); err != nil {
		t.Fatal(err)
	}

	queries := x[:200]
	want, err := brute.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := indexed.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: indexed %v, exact %v", i, got[i], want[i])
		}
	}
}

// TestAutoModeThreshold pins the config switch: auto builds the index
// only at MinGroups and above, off never builds, on always does.
func TestAutoModeThreshold(t *testing.T) {
	x, y := trainSet(50, 6, 1)
	cases := []struct {
		name string
		cfg  IndexConfig
		want bool
	}{
		{"auto below threshold", IndexConfig{MinGroups: 51}, false},
		{"auto at threshold", IndexConfig{MinGroups: 50}, true},
		{"off", IndexConfig{Mode: IndexOff, MinGroups: 1}, false},
		{"on", IndexConfig{Mode: IndexOn}, true},
	}
	for _, tc := range cases {
		c := New(Config{K: 3, P: 2, Index: tc.cfg})
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		if got := c.VectorIndex() != nil; got != tc.want {
			t.Errorf("%s: index built = %v, want %v", tc.name, got, tc.want)
		}
		if got := c.IndexInfo().Enabled; got != tc.want {
			t.Errorf("%s: IndexInfo().Enabled = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Non-Euclidean metrics are never indexed.
	c := New(Config{K: 3, P: 1, Index: IndexConfig{Mode: IndexOn}})
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if c.VectorIndex() != nil {
		t.Error("P=1 model built an index")
	}
}

func TestSetNProbeOnLiveModel(t *testing.T) {
	x, y := trainSet(100, 6, 2)
	c := New(Config{K: 3, P: 2, Index: IndexConfig{Mode: IndexOn, NClusters: 8, Seed: 3}})
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	c.SetNProbe(8)
	if got := c.IndexInfo().NProbe; got != 8 {
		t.Fatalf("NProbe = %d, want 8", got)
	}
	// No-op on a brute-force model.
	b := New(Config{K: 3, P: 2, Index: IndexConfig{Mode: IndexOff}})
	if err := b.Train(x, y); err != nil {
		t.Fatal(err)
	}
	b.SetNProbe(4) // must not panic
	if b.IndexInfo().Enabled {
		t.Fatal("brute model reports an index")
	}
}

// TestMarshalRoundTripBitIdentical is the serialization property with
// and without an index section: marshal → unmarshal → marshal must
// reproduce the exact bytes, and the restored model must predict
// identically.
func TestMarshalRoundTripBitIdentical(t *testing.T) {
	prop := func(seed uint64, indexed bool) bool {
		x, y := trainSet(120, 7, seed)
		mode := IndexOff
		if indexed {
			mode = IndexOn
		}
		c := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: mode, NClusters: 6, Seed: seed}})
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		first, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(first[:8]) != marshalMagic {
			t.Fatalf("magic %q, want %q", first[:8], marshalMagic)
		}

		restored := New(DefaultConfig())
		if err := restored.UnmarshalBinary(first); err != nil {
			t.Fatal(err)
		}
		second, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Logf("seed %d indexed %v: re-marshal differs", seed, indexed)
			return false
		}
		if indexed == (restored.VectorIndex() == nil) {
			t.Fatalf("restored index presence = %v, want %v", restored.VectorIndex() != nil, indexed)
		}

		queries, _ := trainSet(40, 7, seed^0x5555)
		want, err := c.Predict(queries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Predict(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalBinaryExactSize pins the one allocation MarshalBinary
// makes: the model is written into a slice sized for it up front, with
// or without an index section, so nothing is copied as it grows.
func TestMarshalBinaryExactSize(t *testing.T) {
	// The section appends in the shape of Go 1.24's encoding.BinaryAppender.
	var _ interface{ AppendBinary([]byte) ([]byte, error) } = (*ivf.Index)(nil)
	x, y := trainSet(200, 9, 3)
	// The index section adds one: AppendBinary's row → position table.
	for mode, allocs := range map[IndexMode]float64{IndexOff: 1, IndexOn: 2} {
		c := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: mode, NClusters: 8, Seed: 5}})
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		b, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != cap(b) {
			t.Errorf("index mode %v: %d bytes in a slice of capacity %d", mode, len(b), cap(b))
		}
		if n := testing.AllocsPerRun(5, func() { c.MarshalBinary() }); n != allocs {
			t.Errorf("index mode %v: MarshalBinary allocates %v times", mode, n)
		}
	}
}

// corpusModel reads one checked-in FuzzIndexModel corpus file ("go test
// fuzz v1" and a quoted []byte): model bytes as an earlier commit wrote
// them.
func corpusModel(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzIndexModel/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "\n")
	lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
	b, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(b)
}

// TestIndexedModelBytesUnchanged proves the MCBKNN03 format did not move
// when the index's codes went cell-major in memory. The hash is of a
// seeded indexed model as the commit before that change marshalled it;
// the corpus files were written earlier still, by the row-order layout:
// the valid one must be today's bytes of the same model, restore, and
// search like a fresh build, and the two invalid ones must be refused as
// they were.
func TestIndexedModelBytesUnchanged(t *testing.T) {
	x, y := trainSet(300, 10, 9)
	c := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: IndexOn, NClusters: 12, Seed: 4}})
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	if got, want := h.Sum64(), uint64(0x5b9f3a1dcc8a6178); got != want {
		t.Fatalf("indexed model hashes to %#x, want %#x: the wire format moved", got, want)
	}

	old := corpusModel(t, "valid_indexed_v3")
	fresh := fuzzSeedModel(IndexOn)
	if now, err := fresh.MarshalBinary(); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("a fresh model does not marshal to the checked-in bytes of the same model (err %v)", err)
	}
	restored := New(DefaultConfig())
	if err := restored.UnmarshalBinary(old); err != nil {
		t.Fatal(err)
	}
	var want, got []ml.Candidate
	for i := 0; i < 256; i++ {
		q := []float32{float32(i%24) + 0.3, float32(i % 7), float32(i%4) - 0.5, -float32(i % 29)}
		want = fresh.VectorIndex().Search(q, 3, want)
		got = restored.VectorIndex().Search(q, 3, got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %v: restored index answers %v, fresh build %v", q, got, want)
		}
	}
	for _, name := range []string{"indexed_p3_v3", "empty_v3"} {
		if err := New(DefaultConfig()).UnmarshalBinary(corpusModel(t, name)); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: got %v, want ErrCorruptModel", name, err)
		}
	}
}

// header builds a model payload with arbitrary header fields followed by
// payload — the shape an attacker controls on disk, before sealV3 frames
// it.
func header(k int64, p float64, dim, n, groups int64, payload []byte) []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(k)
	w(p)
	w(dim)
	w(n)
	w(groups)
	buf.Write(payload)
	return buf.Bytes()
}

// sealV3 frames a payload (header, matrix, counts and maybe an index
// section) as a MCBKNN03 model with a correct checksum, so that a
// crafted body reaches the structural checks behind it.
func sealV3(payload []byte) []byte {
	out := []byte(marshalMagic)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// indexedWithOrder is a valid indexed model whose header claims the
// Minkowski order p: Train builds an index for p == 2 only.
func indexedWithOrder(t testing.TB, p float64) []byte {
	t.Helper()
	valid, err := fuzzSeedModel(IndexOn).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), valid[len(marshalMagic)+4:]...)
	binary.LittleEndian.PutUint64(payload[8:], math.Float64bits(p)) // after k
	return sealV3(payload)
}

// TestUnmarshalRejectsAdversarialHeaders is the regression test for the
// groups*dim*4 overflow: header fields big enough to wrap int64 used to
// slip past the size check and drive a huge or negative allocation.
// Every field must now be individually capped before any multiplication,
// and every rejection must be the typed ErrCorruptModel. Each crafted
// header is sealed with a correct checksum and must be refused by its
// own guard, named in the error.
func TestUnmarshalRejectsAdversarialHeaders(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		// 2^32 · 2^32 · 4 ≡ 0 (mod 2^64): the old multiplied check saw 0
		// bytes needed and passed, then make([]float32, 1<<64) exploded.
		{"overflow to zero", sealV3(header(5, 2, 1<<32, 1<<33, 1<<32, nil)), "dim = "},
		// 2^62 · 1 · 4 wraps negative: "need < len(b)" was trivially true.
		{"overflow to negative", sealV3(header(5, 2, 1, 1<<62, 1<<62, nil)), "groups = "},
		{"huge dim", sealV3(header(5, 2, 1<<40, 10, 10, nil)), "dim = "},
		{"huge groups", sealV3(header(5, 2, 4, 1<<40, 1<<40, nil)), "groups = "},
		{"huge k", sealV3(header(1<<40, 2, 4, 1, 1, nil)), "k = "},
		{"negative k", sealV3(header(-1, 2, 4, 1, 1, nil)), "k = "},
		{"nan p", sealV3(header(5, math.NaN(), 4, 1, 1, nil)), "minkowski order NaN"},
		{"negative p", sealV3(header(5, -2, 4, 1, 1, nil)), "minkowski order -2"},
		{"negative dim", sealV3(header(5, 2, -4, 1, 1, nil)), "dim = "},
		{"negative groups", sealV3(header(5, 2, 4, 1, -1, nil)), "groups = "},
		{"n below groups", sealV3(header(5, 2, 4, 1, 2, make([]byte, 100))), "n = 1 for 2 groups"},
		{"truncated payload", sealV3(header(5, 2, 4, 2, 2, make([]byte, 10))), "exceed 10 payload bytes"},
		// It used to load, be published as trained, and fail every
		// Predict with ml.ErrNotTrained.
		{"empty model", sealV3(header(5, 2, 4, 0, 0, nil)), "groups = 0"},
		// It used to load, and Predict searched an L2 index for it.
		{"index on a non-euclidean model", indexedWithOrder(t, 3), "index section on a model of minkowski order 3"},
		// The retired un-checksummed format is one more corrupt file.
		{"MCBKNN02", append([]byte("MCBKNN02"), header(5, 2, 4, 1, 1, make([]byte, 24))...), "bad magic"},
		{"bad magic", []byte("MCBKNN99xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), "bad magic"},
		{"short", []byte("MCB"), "short header"},
		{"empty", nil, "short header"},
	}
	for _, tc := range cases {
		err := New(DefaultConfig()).UnmarshalBinary(tc.b)
		switch {
		case !errors.Is(err, ErrCorruptModel):
			t.Errorf("%s: error %v is not ErrCorruptModel", tc.name, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want the guard naming %q", tc.name, err, tc.want)
		}
	}
}

// TestUnmarshalRejectsCountMismatch: counts summing to something other
// than the header's n is structural corruption, not a valid model.
func TestUnmarshalRejectsCountMismatch(t *testing.T) {
	valid, err := fuzzSeedModel(IndexOff).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), valid[len(marshalMagic)+4:]...)
	// Bump the last count (a little-endian int32 at the tail) and reseal,
	// so the checksum passes and the structural check is what refuses it.
	payload[len(payload)-4]++
	err = New(DefaultConfig()).UnmarshalBinary(sealV3(payload))
	if !errors.Is(err, ErrCorruptModel) || !strings.Contains(err.Error(), "counts sum to") {
		t.Fatalf("count mismatch: got %v", err)
	}
}

// TestPredictAllocationBudget pins the heap traffic of a single-query
// Predict: the label slice, the fan-out closure and the chunk's one
// candidate scratch, with the index (whose per-query buffers are pooled)
// and without it (whose block of distances lives on the stack). The
// search itself adds none. The pool may lose its buffer between two
// queries (a GC; under the race detector a quarter of all Puts), so the
// budget is held by the cheapest of several runs.
func TestPredictAllocationBudget(t *testing.T) {
	x, y := trainSet(600, 16, 5)
	for _, mode := range []IndexMode{IndexOn, IndexOff} {
		c := New(Config{K: 5, P: 2, Index: IndexConfig{Mode: mode, Seed: 1}})
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		q := x[3:4]
		least := math.Inf(1)
		for i := 0; i < 20; i++ {
			least = min(least, testing.AllocsPerRun(10, func() { c.Predict(q) }))
		}
		if least > 3 {
			t.Errorf("index %s: Predict of one query allocates %v times, budget 3", mode, least)
		}
	}
}
