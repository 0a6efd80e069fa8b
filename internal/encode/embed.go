package encode

import (
	"strings"

	"mcbound/internal/linalg"
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
// Dim()); it avoids the per-call allocation on hot paths.
func (e *HashingEmbedder) EmbedInto(s string, dst []float32) {
	if len(dst) != e.dim {
		panic("encode: destination length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	// Per-field scratch: on the stack at the served dimension, on the
	// heap (lazily) for the wider ablation ones.
	var stack [Dim]float32
	var field []float32
	if e.dim <= Dim {
		field = stack[:e.dim]
	}
	fieldIdx := 0
	rest := s
	for {
		cut := strings.IndexByte(rest, ',')
		var f string
		if cut < 0 {
			f = rest
		} else {
			f = rest[:cut]
		}
		// Single-field fast path: accumulate straight into dst.
		acc := dst
		if cut >= 0 || fieldIdx > 0 {
			if field == nil {
				field = make([]float32, e.dim)
			}
			for i := range field {
				field[i] = 0
			}
			acc = field
		}
		e.hashField(f, uint64(fieldIdx), acc)
		if &acc[0] != &dst[0] {
			linalg.Normalize(acc)
			linalg.Axpy(e.fieldWeight(fieldIdx), acc, dst)
		}
		if cut < 0 {
			break
		}
		rest = rest[cut+1:]
		fieldIdx++
	}
	linalg.Normalize(dst)
}

// hashField accumulates the signed token hashes of one field into acc.
func (e *HashingEmbedder) hashField(f string, fieldIdx uint64, acc []float32) {
	salt := e.seed ^ mix64(fieldIdx+0x51ed2701)
	tokenize(f, func(tok []byte, word bool) {
		w := e.triWeight
		if word {
			w = e.wordWeight
		}
		h := fnv1a(tok, salt)
		for k := 0; k < e.numHashes; k++ {
			h = mix64(h + uint64(k)*0x9e3779b97f4a7c15)
			idx := int(h % uint64(e.dim))
			if h&(1<<63) != 0 {
				acc[idx] -= w
			} else {
				acc[idx] += w
			}
		}
	})
}

func (e *HashingEmbedder) fieldWeight(i int) float32 {
	if i < len(e.FieldWeights) {
		return e.FieldWeights[i]
	}
	return 1
}

// tokenize lowercases s, emits word tokens split at non-alphanumerics,
// and emits character trigrams within each word (subword units). The
// callback receives a transient byte slice that must not be retained.
func tokenize(s string, emit func(tok []byte, word bool)) {
	var buf [64]byte
	word := buf[:0]
	flush := func() {
		if len(word) == 0 {
			return
		}
		emit(word, true)
		for i := 0; i+3 <= len(word); i++ {
			emit(word[i:i+3], false)
		}
		word = word[:0]
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			fallthrough
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			if len(word) < cap(word) {
				word = append(word, c)
			}
		default:
			flush()
		}
	}
	flush()
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
