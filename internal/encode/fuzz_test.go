package encode

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"mcbound/internal/linalg"
)

// FuzzTokenize asserts the subword tokenizer's contract on arbitrary
// input: it never panics, every token is a non-empty
// lowercase-alphanumeric byte string, non-word tokens are exactly the
// character trigrams of a word, and the sequence is the one the
// callback tokenizer of the dense reference (embed_ref_test.go) emits.
func FuzzTokenize(f *testing.F) {
	f.Add("usr01,job_name,48,1,gcc/12.2,2000MHz")
	f.Add("")
	f.Add(",,,")
	f.Add("UPPER lower 0123456789")
	f.Add("日本語テキストと emoji 🎉 mixed")
	f.Add(string([]byte{0x00, 0xff, 0xfe, ',', 'a'}))
	f.Fuzz(func(t *testing.T, s string) {
		type token struct {
			text string
			word bool
		}
		var want []token
		refTokenize(s, func(tok []byte, word bool) { want = append(want, token{string(tok), word}) })
		toks := tokenizer{s: s}
		n := 0
		for tok, word, ok := toks.next(); ok; tok, word, ok = toks.next() {
			if len(tok) == 0 {
				t.Fatalf("empty token from %q", s)
			}
			if !word && len(tok) != 3 {
				t.Fatalf("trigram of length %d from %q", len(tok), s)
			}
			for _, c := range tok {
				if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
					t.Fatalf("token byte %q not lowercase alphanumeric (input %q)", c, s)
				}
			}
			if n >= len(want) || want[n] != (token{string(tok), word}) {
				t.Fatalf("token %d of %q is %q (word %v); the reference tokenizer gives %v", n, s, tok, word, want)
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("%q gives %d tokens, the reference tokenizer %d", s, n, len(want))
		}
	})
}

// FuzzEmbed asserts the embedder's contract on arbitrary input: it never
// panics, always returns a Dim-dimensional finite vector that is either
// exactly zero (tokenless input) or L2-normalised, and is deterministic.
func FuzzEmbed(f *testing.F) {
	f.Add("usr01,job_name,48,1,gcc/12.2,2000MHz")
	f.Add("")
	f.Add("a")
	f.Add(",,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,")
	f.Add("cfd_prod_01 vs cfd_prod_02")
	f.Add(string([]byte{0xc3, 0x28, ',', 0x00}))
	e := NewHashingEmbedder()
	e.FieldWeights = FieldWeightsFor(DefaultFeatures())
	f.Fuzz(func(t *testing.T, s string) {
		v := e.Embed(s)
		if len(v) != Dim {
			t.Fatalf("Embed(%q) returned %d dims, want %d", s, len(v), Dim)
		}
		for i, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("Embed(%q)[%d] = %g", s, i, x)
			}
		}
		n := linalg.Norm2(v)
		if n != 0 && math.Abs(n-1) > 1e-3 {
			t.Fatalf("Embed(%q) norm = %g, want 0 or 1", s, n)
		}
		w := e.Embed(s)
		for i := range v {
			if v[i] != w[i] {
				t.Fatalf("Embed(%q) not deterministic at dim %d: %g vs %g", s, i, v[i], w[i])
			}
		}
	})
}

// FuzzEmbedMatchesReference holds EmbedInto to the dense reference
// refEmbedInto bit for bit on arbitrary input, at any width from 1 to
// 1024 and under each weight set of refWeightSets, and sumSquares to
// linalg.Dot on the result (see compareWithReference).
func FuzzEmbedMatchesReference(f *testing.F) {
	f.Add("usr01,job_name,48,1,gcc/12.2,2000MHz", uint16(Dim-1), uint8(1))
	f.Add("", uint16(0), uint8(0))
	f.Add(",,,,a,,", uint16(64), uint8(3))
	f.Add("u0392,qmc_scan_77~u12,12288,256,fuji/4.8.1,2200MHz", uint16(767), uint8(2))
	f.Add(string([]byte{0xc3, 0x28, ',', 0x00, 'Z'}), uint16(4), uint8(1))
	f.Fuzz(func(t *testing.T, s string, width uint16, weightSet uint8) {
		e := NewHashingEmbedderDim(1 + int(width)%1024)
		e.FieldWeights = refWeightSets[int(weightSet)%len(refWeightSets)]
		if msg := compareWithReference(e, s); msg != "" {
			t.Fatalf("dim %d, weights %v: %s", e.Dim(), e.FieldWeights, msg)
		}
	})
}

// FuzzCacheRoundTrip holds a cache entry to the vector it was made from,
// bit for bit: any float32 vector of width 1 to 1024 — -0, NaN payloads,
// subnormals, all-zero and fully set vectors among them — compacted by
// its bits, or under a wider mask as the hashing embedder's union bitmap
// is, and scattered into zeroed memory comes back with the same bits,
// from an entry no larger than the dense vector. The raw bytes then drive
// puts, notes and lookups of 64 keys through a cache of one entry a
// shard, where almost every new key evicts: each lookup must find exactly
// the keys a one-slot-a-shard reference holds, with the vector stored and
// the note last set on that key under the stamp asked — never one set on
// the key its entry held before.
func FuzzCacheRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint64(0))
	f.Add([]byte{0, 0, 0, 0x80}, uint16(383), uint64(1))                 // -0
	f.Add([]byte{1, 0, 0xc0, 0x7f, 1, 0, 0, 0}, uint16(9), uint64(0xff)) // a NaN payload, a subnormal
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(1023), uint64(0))       // fully set: the pattern repeats
	f.Add([]byte{0, 0, 0, 0}, uint16(64), uint64(1<<63))                 // all zero, extra mask bits
	f.Fuzz(func(t *testing.T, raw []byte, width uint16, extra uint64) {
		v := make([]float32, 1+int(width)%1024)
		if len(raw) >= 4 {
			for i := range v {
				o := 4 * i % (len(raw) &^ 3)
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[o:]))
			}
		}
		exact := nonzeroMask(v)
		wide := append([]uint64(nil), exact...)
		for wi := range wide {
			wide[wi] |= bits.RotateLeft64(extra, wi)
		}
		if tail := len(v) % 64; tail != 0 {
			wide[len(wide)-1] &= 1<<tail - 1
		}
		for _, mask := range [][]uint64{exact, wide} {
			sv := compact(v, mask)
			if len(sv) > len(v) {
				t.Fatalf("width %d: the entry takes %d words, more than the dense vector", len(v), len(sv))
			}
			checkScatter(t, sv, v)
		}

		c := newShardedCache(cacheShardCount)
		sv := compact(v, exact)
		type slot struct {
			key  string
			note uint64
		}
		var ref [cacheShardCount]slot
		for i, b := range raw[:min(len(raw), 256)] {
			key := fmt.Sprintf("k%d", b&63)
			s := &ref[shardIndex(key)]
			held := s.key == key
			switch b >> 6 {
			case 0:
				c.put(key, sv)
				if !held {
					*s = slot{key: key}
				}
			case 1:
				note := MakeNote(1+uint64(i%3), b)
				c.setNote(key, note)
				if held {
					s.note = note
				}
			default:
				stamp := 1 + uint64(b%3)
				val, note, ok := c.get(key, stamp)
				want := uint64(0)
				if held && s.note>>noteShift == stamp {
					want = s.note
				}
				if ok != held || note != want {
					t.Fatalf("op %d: %s cached %v with note %#x, want %v with %#x", i, key, ok, note, held, want)
				}
				if ok {
					checkScatter(t, val, v)
				}
			}
		}
	})
}

// checkScatter fails unless sv scatters back to v's bits.
func checkScatter(t *testing.T, sv sparseVec, v []float32) {
	t.Helper()
	got := make([]float32, len(v))
	sv.scatter(got)
	for i := range v {
		if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
			t.Fatalf("width %d: coordinate %d comes back %#08x, stored %#08x",
				len(v), i, math.Float32bits(got[i]), math.Float32bits(v[i]))
		}
	}
}
