package knn

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"mcbound/internal/job"
)

// fuzzSeedModel trains a small deterministic model for seeding the
// corpus: 24 distinct vectors over a 4-dim grid, alternating labels.
func fuzzSeedModel(mode IndexMode) *Classifier {
	c := New(Config{K: 3, P: 2, Index: IndexConfig{Mode: mode, NClusters: 4, Seed: 1}})
	var x [][]float32
	var y []job.Label
	for i := 0; i < 24; i++ {
		x = append(x, []float32{float32(i), float32(i % 5), float32(i % 3), float32(-i)})
		if i%2 == 0 {
			y = append(y, job.MemoryBound)
		} else {
			y = append(y, job.ComputeBound)
		}
	}
	if err := c.Train(x, y); err != nil {
		panic(err)
	}
	return c
}

// legacyFixture is a MCBKNN02 model written by the last release that
// had a V2 writer: fuzzSeedModel(IndexOff), no checksum.
func legacyFixture(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/legacy_v2.model")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzIndexModel drives UnmarshalBinary with arbitrary bytes: any input
// either loads a model that re-marshals to the exact same bytes (a
// legacy MCBKNN02 input: to a MCBKNN03 model that does), or fails with
// the typed ErrCorruptModel — never a panic, never an unbounded
// allocation. Mirrors FuzzWALFrame's contract: a single flipped bit
// anywhere in a valid MCBKNN03 model, indexed or not, must be caught by
// the checksum or a structural check.
func FuzzIndexModel(f *testing.F) {
	bruteBytes, err := fuzzSeedModel(IndexOff).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	indexedBytes, err := fuzzSeedModel(IndexOn).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(bruteBytes)
	f.Add(indexedBytes)
	f.Add([]byte{})
	f.Add([]byte(marshalMagicV2))
	f.Add([]byte(marshalMagic))
	// The header shape of the historical overflow bug: groups and dim
	// chosen so groups*dim*4 wraps int64.
	f.Add(legacyHeader(5, 2, 1<<32, 1<<33, 1<<32, nil))
	f.Add(legacyHeader(5, 2, 1, 1<<62, 1<<62, nil))
	f.Add(indexedBytes[:len(indexedBytes)/2])
	corrupt := append([]byte(nil), indexedBytes...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	f.Add(legacyFixture(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(DefaultConfig())
		if err := c.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("untyped unmarshal error: %v", err)
			}
		} else {
			// Accepted input must be a fixed point of the codec, legacy
			// input after its one upgrade to the current format.
			again, err := c.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of accepted model failed: %v", err)
			}
			want := data
			if bytes.HasPrefix(data, []byte(marshalMagicV2)) {
				want = again
				if err := c.UnmarshalBinary(want); err != nil {
					t.Fatalf("upgraded legacy model rejected: %v", err)
				}
				if again, err = c.MarshalBinary(); err != nil {
					t.Fatalf("re-marshal of upgraded model failed: %v", err)
				}
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("accepted model does not re-marshal to its input (%d -> %d bytes)", len(want), len(again))
			}
		}

		// A single flipped bit anywhere in a valid model must be rejected
		// (the crc32 covers everything after the magic+checksum, and those
		// two fields are themselves checked).
		for _, valid := range [][]byte{bruteBytes, indexedBytes} {
			if len(data) == 0 {
				break
			}
			mut := append([]byte(nil), valid...)
			i := (int(data[0]) | int(data[len(data)-1])<<8) % len(mut)
			mut[i] ^= 1 << (data[0] % 8)
			if err := New(DefaultConfig()).UnmarshalBinary(mut); err == nil {
				t.Fatalf("bit flip at byte %d survived unmarshal", i)
			} else if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("bit flip at byte %d: untyped error %v", i, err)
			}
		}
	})
}

// TestIndexModelEveryBitFlip runs the flip check exhaustively (the fuzz
// target samples it): all 8·len bit positions of a valid MCBKNN03 model
// must be rejected when flipped — the un-indexed model included, which
// is what every window below the auto-index threshold persists.
func TestIndexModelEveryBitFlip(t *testing.T) {
	for _, mode := range []IndexMode{IndexOn, IndexOff} {
		valid, err := fuzzSeedModel(mode).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mut := make([]byte, len(valid))
		for i := range valid {
			for bit := 0; bit < 8; bit++ {
				copy(mut, valid)
				mut[i] ^= 1 << bit
				if err := New(DefaultConfig()).UnmarshalBinary(mut); err == nil {
					t.Fatalf("index %s: flip of byte %d bit %d accepted", mode, i, bit)
				} else if !errors.Is(err, ErrCorruptModel) {
					t.Fatalf("index %s: flip of byte %d bit %d: untyped error %v", mode, i, bit, err)
				}
			}
		}
	}
}

// TestLegacyV2ModelLoads: on-disk models from before the single
// MCBKNN03 writer still restore, predict like a fresh train of the same
// data, and re-marshal into the current checksummed format.
func TestLegacyV2ModelLoads(t *testing.T) {
	legacy := legacyFixture(t)
	if !bytes.HasPrefix(legacy, []byte(marshalMagicV2)) {
		t.Fatalf("fixture magic %q, want %q", legacy[:8], marshalMagicV2)
	}
	restored := New(DefaultConfig())
	if err := restored.UnmarshalBinary(legacy); err != nil {
		t.Fatal(err)
	}
	fresh := fuzzSeedModel(IndexOff)
	queries := [][]float32{{0, 0, 0, 0}, {7.4, 2, 1, -7}, {23, 3, 2, -23}, {11, 1, 2, -11.5}}
	want, err := fresh.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d: legacy model predicts %v, fresh %v", i, got[i], want[i])
		}
	}
	upgraded, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	current, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(upgraded, current) {
		t.Fatal("legacy model does not re-marshal to the current format of the same model")
	}
}
