package encode

import (
	"fmt"
	"math"
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

// FuzzCacheRoundTrip holds the cache to a reference: the raw bytes drive
// puts, notes and lookups of 64 keys through a cache of one entry a
// shard, where almost every new key evicts. Each lookup must find exactly
// the keys a one-slot-a-shard reference holds, with the note last set on
// that key under the stamp asked — never one set on the key its entry
// held before.
func FuzzCacheRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x45, 0xc5, 0x85, 0xc5})             // put, note, lookups under three stamps
	f.Add([]byte{0x00, 0x40, 0x01, 0x41, 0x02, 0x80, 0x81}) // notes, then keys that may evict them
	f.Add([]byte{0x47, 0x87, 0x07, 0x87})                   // a note on an absent key is dropped
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                   // lookups of a key never stored
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := newShardedCache(cacheShardCount)
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
				c.put(key)
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
				note, ok := c.get(key, stamp)
				want := uint64(0)
				if held && s.note>>noteShift == stamp {
					want = s.note
				}
				if ok != held || note != want {
					t.Fatalf("op %d: %s cached %v with note %#x, want %v with %#x", i, key, ok, note, held, want)
				}
			}
		}
	})
}
