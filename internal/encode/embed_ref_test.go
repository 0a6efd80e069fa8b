package encode

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"mcbound/internal/linalg"
	"mcbound/internal/workload"
)

// refEmbedInto is the dense definition of HashingEmbedder.EmbedInto, kept
// verbatim as the reference the sparse implementation must reproduce bit
// for bit: every field is accumulated into a full dim-wide scratch,
// normalised over all dim coordinates with linalg.Normalize and added
// into dst with linalg.Axpy, and the sum normalised again. It has its own
// copy of the token hashing and of the callback tokenizer, so the
// differential tests cover the whole embedder, tokenizer included.
func refEmbedInto(e *HashingEmbedder, s string, dst []float32) {
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
		refHashField(e, f, uint64(fieldIdx), acc)
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

// refHashField accumulates the signed token hashes of one field into acc.
func refHashField(e *HashingEmbedder, f string, fieldIdx uint64, acc []float32) {
	salt := e.seed ^ mix64(fieldIdx+0x51ed2701)
	refTokenize(f, func(tok []byte, word bool) {
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

// refTokenize lowercases s, emits word tokens split at non-alphanumerics,
// and emits character trigrams within each word (subword units). The
// callback receives a transient byte slice that must not be retained.
func refTokenize(s string, emit func(tok []byte, word bool)) {
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

// refWidths are the output widths the sparse embedder is held to the
// reference at: around the 64-bit bitmap words, around Dot's four-lane
// body/tail split, the served width and the ablation widths past it.
var refWidths = []int{1, 3, 5, 63, 64, 65, 383, 384, 385, 768}

// refWeightSets are the FieldWeights the reference comparisons use: none,
// the served ones, the ablation's heavy first field, and a set with a
// fractional, a negative and a zero weight (fields past it weigh 1).
var refWeightSets = [][]float32{
	nil,
	FieldWeightsFor(DefaultFeatures()),
	{4, 1},
	{0.25, -1, 0},
}

// TestEmbedMatchesDenseReference holds EmbedInto to refEmbedInto bit for
// bit: every distinct feature string of the default evaluation trace
// (-scale 0.02 -seed 7) and its never-seen-name variant (the benchmark's
// unique window), then random strings with commas, NULs, high bytes and
// empty fields, each at every width of refWidths under every weight set
// of refWeightSets, into a destination pre-filled with garbage.
func TestEmbedMatchesDenseReference(t *testing.T) {
	jobs, err := workload.NewGenerator(workload.EvalConfig(0.02), 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var trace []string
	for i, j := range jobs {
		s := FeatureString(j, DefaultFeatures())
		if seen[s] {
			continue
		}
		seen[s] = true
		v := *j
		v.Name = fmt.Sprintf("%s~u%d", j.Name, i)
		trace = append(trace, s, FeatureString(&v, DefaultFeatures()))
	}
	if testing.Short() {
		trace = trace[:400]
	}
	random := randomFeatureStrings(rand.New(rand.NewPCG(1, 2)), 400)
	all := append(append([]string(nil), trace...), random...)
	t.Logf("%d trace strings (distinct and never-seen variants), %d random", len(trace), len(random))
	for _, dim := range refWidths {
		for _, weights := range refWeightSets {
			e := NewHashingEmbedderDim(dim)
			e.FieldWeights = weights
			// The trace strings at every width under the served weights,
			// and at the served width under every weight set.
			inputs := random
			if dim == Dim || len(weights) == len(DefaultFeatures()) {
				inputs = all
			}
			for _, s := range inputs {
				if msg := compareWithReference(e, s); msg != "" {
					t.Fatalf("dim %d, weights %v: %s", dim, weights, msg)
				}
			}
		}
	}
}

// compareWithReference embeds s with e and with refEmbedInto, each into a
// destination full of garbage, and describes the first coordinate whose
// bits differ ("" when none does). It also holds sumSquares to linalg.Dot
// on the reference's output: the float64 norm is rounded away by the
// float32 scale it becomes, so a change to the norm's lanes or order
// shows there and seldom in the embedding.
func compareWithReference(e *HashingEmbedder, s string) string {
	got, want := make([]float32, e.dim), make([]float32, e.dim)
	for i := range got {
		got[i] = float32(math.NaN())
		want[i] = -3e38
	}
	e.EmbedInto(s, got)
	refEmbedInto(e, s, want)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("EmbedInto(%q)[%d] = %g (%#08x), reference %g (%#08x)",
				s, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	mask := make([]uint64, (e.dim+63)/64)
	for i, x := range want {
		if x != 0 {
			mask[i>>6] |= 1 << (i & 63)
		}
	}
	if g, w := sumSquares(want, mask), linalg.Dot(want, want); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Sprintf("sumSquares(EmbedInto(%q)) = %v, linalg.Dot %v", s, g, w)
	}
	return ""
}

// randomFeatureStrings returns n strings of up to about 200 bytes drawn
// mostly from feature-string bytes — letters of both cases, digits, the
// separators the tokenizer splits at, commas (empty fields included) —
// with NULs, high bytes and words long enough to be cut at the
// tokenizer's 64 bytes mixed in.
func randomFeatureStrings(rng *rand.Rand, n int) []string {
	const alphabet = "abcxyzABCXYZ0129_-/. ,,,"
	out := make([]string, n)
	for i := range out {
		var b []byte
		for size := rng.IntN(161); len(b) < size; {
			switch r := rng.IntN(80); {
			case r == 0:
				b = append(b, 0)
			case r == 1:
				b = append(b, byte(0x80+rng.IntN(0x80)))
			case r == 2:
				for k := 60 + rng.IntN(40); k > 0; k-- {
					b = append(b, alphabet[rng.IntN(12)])
				}
			default:
				b = append(b, alphabet[rng.IntN(len(alphabet))])
			}
		}
		out[i] = string(b)
	}
	return out
}
