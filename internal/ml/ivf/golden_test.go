package ivf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mcbound/internal/linalg"
	"mcbound/internal/ml"
)

// TestGoldenSearchHash pins what an index built and queried through the
// linalg distance kernels returns, down to the bits: the calibrated
// nprobe, and the id and Float64bits(distance) of every result of 256
// queries, on one matrix whose dim is a multiple of the vector step and
// one whose dim is not. The constant was recorded on the scalar Go
// kernels of the commit before the vector backend; the test passes
// unchanged with and without -tags purego, which is what shows that both
// backends build and serve the same index.
func TestGoldenSearchHash(t *testing.T) {
	const want = uint64(0xedc1c4df0ff8238a)
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, shape := range []struct{ n, dim int }{{3000, 96}, {1200, 50}} {
		data := randMatrix(shape.n, shape.dim, 3, uint64(shape.dim))
		ix, err := Build(data, shape.dim, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(ix.Clusters()))
		put(uint64(ix.NProbe()))
		queries := randMatrix(256, shape.dim, 3, uint64(shape.n))
		var dst []ml.Candidate
		for q := 0; q < 256; q++ {
			dst = ix.Search(queries[q*shape.dim:(q+1)*shape.dim], 5, dst)
			put(uint64(len(dst)))
			for _, c := range dst {
				put(uint64(c.ID))
				put(math.Float64bits(c.Dist))
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("golden hash %#x, want %#x (linalg kernel %q)", got, want, linalg.Kernel())
	}
}

// TestSearchDoesNotAllocate pins the per-query scratch: with the pooled
// buffer at hand, a Search into a reused dst allocates nothing. The pool
// may lose its buffer between two queries (a GC), so the claim is about
// the cheapest of several runs, not their mean. Under the race detector
// the searches run but the count is not asserted: its pool drops a
// quarter of all Puts, and a search that finds no buffer allocates
// one, so every run of ten can miss it.
func TestSearchDoesNotAllocate(t *testing.T) {
	const n, dim = 2000, 32
	data := randMatrix(n, dim, 3, 11)
	ix, err := Build(data, dim, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := data[5*dim : 6*dim]
	dst := make([]ml.Candidate, 0, 5)
	least := math.Inf(1)
	for i := 0; i < 20; i++ {
		least = min(least, testing.AllocsPerRun(10, func() { dst = ix.Search(q, 5, dst) }))
	}
	if least != 0 && !raceEnabled {
		t.Fatalf("Search allocates %v times per query, want 0", least)
	}
}
