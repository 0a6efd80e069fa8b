package knn

import (
	"bytes"
	"errors"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/stats"
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

// FuzzIndexModel drives UnmarshalBinary with arbitrary bytes: any input
// either loads a model that re-marshals to the exact same bytes, or
// fails with the typed ErrCorruptModel — never a panic, never an
// unbounded allocation. Mirrors FuzzWALFrame's contract: a single flipped bit
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
	// The retired MCBKNN02 magic (and, last, in front of a current body).
	f.Add([]byte("MCBKNN02"))
	f.Add([]byte(marshalMagic))
	// The header shape of the historical overflow bug: groups and dim
	// chosen so groups*dim*4 wraps int64.
	f.Add(sealV3(header(5, 2, 1<<32, 1<<33, 1<<32, nil)))
	f.Add(sealV3(header(5, 2, 1, 1<<62, 1<<62, nil)))
	f.Add(indexedBytes[:len(indexedBytes)/2])
	corrupt := append([]byte(nil), indexedBytes...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	f.Add(append([]byte("MCBKNN02"), bruteBytes[len(marshalMagic)+4:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(DefaultConfig())
		if err := c.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("untyped unmarshal error: %v", err)
			}
		} else {
			// Accepted input must be a fixed point of the codec.
			again, err := c.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of accepted model failed: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted model does not re-marshal to its input (%d -> %d bytes)", len(data), len(again))
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

// FuzzTrainAliasedMatchesCopied: whatever small training set the fuzzer
// finds — values from a handful of levels, so equal vectors in separate
// arrays are common, and a share of the rows (alias/256) an earlier
// row's vector itself — Train marshals the same model from it as from
// the rows each copied into an array of its own, with and without an
// index.
func FuzzTrainAliasedMatchesCopied(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(4), uint8(3), uint8(0), false)
	f.Add(uint64(2), uint8(200), uint8(9), uint8(2), uint8(128), true)
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(255), false)
	f.Add(uint64(4), uint8(255), uint8(16), uint8(40), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, levels, alias uint8, indexed bool) {
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
		cfg := Config{K: 3, P: 2, Index: IndexConfig{Mode: IndexOff}}
		if indexed {
			cfg.Index = IndexConfig{Mode: IndexOn, NClusters: 4, Seed: seed}
		}
		if got, want := trainBytes(t, cfg, x, y), trainBytes(t, cfg, deepCopy(x), y); !bytes.Equal(got, want) {
			t.Fatalf("aliased rows marshal %d bytes that differ from the copies' %d", len(got), len(want))
		}
	})
}
