package encode

import (
	"math"
	"math/bits"
	"strings"
)

// Dim is the embedding dimensionality, matching the 384-dim output of the
// all-MiniLM-L6-v2 Sentence-BERT model used by the paper.
const Dim = 384

// Embedder maps a text string to a fixed-size dense vector. Similar
// strings must map to nearby vectors; the output must be deterministic.
type Embedder interface {
	// Embed returns a Dim-dimensional unit-norm representation of s.
	Embed(s string) []float32
	// Dim returns the output dimensionality.
	Dim() int
}

// HashingEmbedder is the Sentence-BERT substitute: a deterministic
// sentence embedder built from a subword tokenizer and signed feature
// hashing.
//
// The input is split at commas into fields (the Feature Encoder's
// comma-separated representation). Each field is tokenized into word
// tokens and character trigrams; every token contributes to numHashes
// pseudo-random signed coordinates derived from an FNV-1a hash salted by
// the field index, so equal strings in different fields do not collide.
// Word tokens carry more weight than trigrams, making exact matches
// dominate while near-matches (e.g. "cfd_prod_01" vs "cfd_prod_02")
// still land close. Each field's sub-vector is L2-normalized and scaled
// by its FieldWeights entry before summation, so short fields (a user
// id) are not drowned out by long ones (a job name); the sum is
// normalized again.
//
// The geometry this produces is what KNN and the RF consume from SBERT
// for these short, code-like feature strings: cosine similarity driven
// by weighted per-field token overlap.
type HashingEmbedder struct {
	dim        int
	numHashes  int
	seed       uint64
	wordWeight float32
	triWeight  float32

	// FieldWeights scales each comma-separated field's (normalized)
	// contribution; fields beyond its length get weight 1. Nil means
	// all fields weigh 1.
	FieldWeights []float32
}

// NewHashingEmbedder returns an embedder with the default geometry
// (Dim dimensions, 4 hash probes per token).
func NewHashingEmbedder() *HashingEmbedder { return NewHashingEmbedderDim(Dim) }

// NewHashingEmbedderDim returns an embedder with a custom output
// dimensionality (used by the ablation benchmarks). dim must be > 0.
func NewHashingEmbedderDim(dim int) *HashingEmbedder {
	if dim <= 0 {
		panic("encode: embedder dim must be > 0")
	}
	return &HashingEmbedder{
		dim:        dim,
		numHashes:  4,
		seed:       0x6d63626f756e64, // "mcbound"
		wordWeight: 1.0,
		triWeight:  0.4,
	}
}

// Dim implements Embedder.
func (e *HashingEmbedder) Dim() int { return e.dim }

// Embed implements Embedder.
func (e *HashingEmbedder) Embed(s string) []float32 {
	v := make([]float32, e.dim)
	e.EmbedInto(s, v)
	return v
}

// EmbedInto writes the embedding of s into dst (len(dst) must equal
// Dim()). Up to Dim dimensions it allocates nothing; a wider ablation
// embedder pays its two scratch buffers per call.
//
// A field's tokens hit only a few dozen of the dim coordinates, so every
// step after hashing visits just those: hashField marks each coordinate
// it touches in a bitmap, and the field's norm, its weighted sum into
// dst and the final normalisation walk the set bits. The result has the
// bits of the dense definition — normalise each field over all dim
// coordinates, add it with its weight, normalise the sum — because a
// coordinate no token hit only ever contributes exact zeros: +0 to a
// lane of the norm, 0·inv and w·0 to dst, and no step makes a -0. (A
// field weight so small that a norm's inverse overflows float32 would
// break this — the dense code turns 0·Inf into NaN; no weight in use
// comes near it.)
func (e *HashingEmbedder) EmbedInto(s string, dst []float32) {
	var bitStack [2 * Dim / 64]uint64
	e.embedMarked(s, dst, e.bitmaps(bitStack[:]))
}

// bitmaps returns the two zeroed bitmaps embedMarked takes, cut from
// stack (2·Dim/64 words) up to the served dimension and allocated for
// the wider ablation ones.
func (e *HashingEmbedder) bitmaps(stack []uint64) []uint64 {
	n := 2 * ((e.dim + 63) / 64)
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]uint64, n)
}

// embedMarked is EmbedInto over the caller's scratch bitmaps: 2·⌈dim/64⌉
// zeroed words. On return the second half is the union of the
// coordinates any token hit, and dst is +0 outside it.
func (e *HashingEmbedder) embedMarked(s string, dst []float32, bitmaps []uint64) {
	if len(dst) != e.dim {
		panic("encode: destination length mismatch")
	}
	clear(dst)
	// Scratch — the field accumulator, all zero between fields — on the
	// stack at the served dimension, on the heap for the wider ablation
	// ones; the bitmaps are the field's and the union of all fields'.
	var fieldStack [Dim]float32
	var field []float32
	if e.dim <= Dim {
		field = fieldStack[:e.dim]
	} else {
		field = make([]float32, e.dim)
	}
	words := len(bitmaps) / 2
	touched, union := bitmaps[:words], bitmaps[words:]
	fieldIdx := 0
	rest := s
	for {
		cut := strings.IndexByte(rest, ',')
		f := rest
		if cut >= 0 {
			f = rest[:cut]
		}
		if cut < 0 && fieldIdx == 0 {
			// A single field is not normalised on its own: accumulate
			// straight into dst.
			e.hashField(f, 0, dst, union)
			break
		}
		e.hashField(f, uint64(fieldIdx), field, touched)
		addField(e.fieldWeight(fieldIdx), field, touched, dst, union)
		if cut < 0 {
			break
		}
		rest = rest[cut+1:]
		fieldIdx++
	}
	scaleToUnit(dst, union)
}

// hashField accumulates the signed token hashes of one field into acc
// and sets the bit of every coordinate it touches in mark.
func (e *HashingEmbedder) hashField(f string, fieldIdx uint64, acc []float32, mark []uint64) {
	salt := e.seed ^ mix64(fieldIdx+0x51ed2701)
	toks := tokenizer{s: f}
	for {
		tok, word, ok := toks.next()
		if !ok {
			return
		}
		w := e.triWeight
		if word {
			w = e.wordWeight
		}
		h := fnv1a(tok, salt)
		for k := 0; k < e.numHashes; k++ {
			h = mix64(h + uint64(k)*0x9e3779b97f4a7c15)
			idx := int(h % uint64(e.dim))
			mark[idx>>6] |= 1 << (idx & 63)
			if h&(1<<63) != 0 {
				acc[idx] -= w
			} else {
				acc[idx] += w
			}
		}
	}
}

// addField adds field, normalised and scaled by w, into dst at the
// coordinates set in touched, and moves those bits into union. It leaves
// field all zero and touched clear for the next field.
func addField(w float32, field []float32, touched []uint64, dst []float32, union []uint64) {
	// n == 0 means every touched coordinate is zero: adding w·0 to dst
	// changes nothing, and the scratch is already clear.
	if n := math.Sqrt(sumSquares(field, touched)); n != 0 {
		inv := float32(1 / n)
		for wi, word := range touched {
			for ; word != 0; word &= word - 1 {
				i := wi*64 + bits.TrailingZeros64(word)
				v := field[i] * inv
				dst[i] += w * v
				field[i] = 0
			}
		}
	}
	for wi, word := range touched {
		union[wi] |= word
		touched[wi] = 0
	}
}

// scaleToUnit is linalg.Normalize for a v that is zero outside mask.
func scaleToUnit(v []float32, mask []uint64) {
	n := math.Sqrt(sumSquares(v, mask))
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for wi, word := range mask {
		for ; word != 0; word &= word - 1 {
			v[wi*64+bits.TrailingZeros64(word)] *= inv
		}
	}
}

// sumSquares returns the bits of linalg.Dot(v, v) for a v that is zero
// outside mask, reading only the coordinates set in mask. It keeps Dot's
// four lanes — index i in lane i&3 up to the last multiple of four, the
// tail after it in lane 0 — each summed in increasing index order, and
// Dot's final s0+s1+s2+s3. A word's lane-k coordinates are its bits k,
// k+4, k+8, …, so each lane is a mask of the word.
func sumSquares(v []float32, mask []uint64) float64 {
	const lane0 = 0x1111111111111111
	var s0, s1, s2, s3 float64
	body := len(v) &^ 3
	for wi, word := range mask {
		base := wi * 64
		if base+64 > body {
			word &= 1<<(body-base) - 1 // the tail is summed below
		}
		s0 = addSquares(s0, v, base, word&lane0)
		s1 = addSquares(s1, v, base, word&(lane0<<1))
		s2 = addSquares(s2, v, base, word&(lane0<<2))
		s3 = addSquares(s3, v, base, word&(lane0<<3))
	}
	for i := body; i < len(v); i++ {
		s0 += float64(v[i]) * float64(v[i])
	}
	return s0 + s1 + s2 + s3
}

// addSquares adds v[base+j]² to s for each set bit j of word, in
// increasing j.
func addSquares(s float64, v []float32, base int, word uint64) float64 {
	for ; word != 0; word &= word - 1 {
		x := v[base+bits.TrailingZeros64(word)]
		// The same expression as Dot's lane update: a GOARCH that fuses a
		// multiply into the add it feeds (arm64) fuses both alike.
		s += float64(x) * float64(x)
	}
	return s
}

func (e *HashingEmbedder) fieldWeight(i int) float32 {
	if i < len(e.FieldWeights) {
		return e.FieldWeights[i]
	}
	return 1
}

// tokenizer lowercases s and yields its word tokens, split at
// non-alphanumerics, each followed by the character trigrams within it
// (subword units). A word keeps its first 64 bytes. It is a value the
// caller steps with next, so its word buffer lives in the caller's
// frame.
type tokenizer struct {
	s   string
	pos int // next byte of s to scan
	buf [64]byte
	n   int // length of the current word in buf
	tri int // start of the current word's next trigram
}

// next returns the next token and whether it is a word (rather than a
// trigram), or ok == false when s is exhausted. The token aliases the
// tokenizer's buffer and is valid until the following call.
func (t *tokenizer) next() (tok []byte, word, ok bool) {
	if t.tri+3 <= t.n {
		t.tri++
		return t.buf[t.tri-1 : t.tri+2], false, true
	}
	t.n, t.tri = 0, 0
	for t.pos < len(t.s) {
		c := t.s[t.pos]
		t.pos++
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			fallthrough
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			if t.n < len(t.buf) {
				t.buf[t.n] = c
				t.n++
			}
		case t.n > 0: // a separator ends the word
			return t.buf[:t.n], true, true
		}
	}
	return t.buf[:t.n], true, t.n > 0
}

// fnv1a hashes b with a seed folded into the FNV offset basis.
func fnv1a(b []byte, seed uint64) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: decorrelates the per-probe hashes.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
