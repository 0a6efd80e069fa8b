package encode

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mcbound/internal/linalg"
)

func cosine(a, b []float32) float64 { return linalg.Dot(a, b) }

func TestEmbedDeterministicUnitNorm(t *testing.T) {
	e := NewHashingEmbedder()
	a := e.Embed("u0001,cfd_prod_01,96,2,gcc/12.2,2000MHz")
	b := e.Embed("u0001,cfd_prod_01,96,2,gcc/12.2,2000MHz")
	if len(a) != Dim || e.Dim() != Dim {
		t.Fatalf("dim = %d, want %d", len(a), Dim)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	if n := linalg.Norm2(a); math.Abs(n-1) > 1e-5 {
		t.Errorf("norm = %g, want 1", n)
	}
}

func TestEmbedSimilarityOrdering(t *testing.T) {
	e := NewHashingEmbedder()
	base := e.Embed("u0001,cfd_prod_01,96,2,gcc/12.2,2000MHz")
	near := e.Embed("u0001,cfd_prod_02,96,2,gcc/12.2,2000MHz")       // one field varies slightly
	far := e.Embed("u0392,qmc_scan_77,12288,256,fuji/4.8.1,2200MHz") // everything differs
	if cosine(base, near) <= cosine(base, far) {
		t.Errorf("similar strings not closer: near %g, far %g", cosine(base, near), cosine(base, far))
	}
	if cosine(base, near) < 0.5 {
		t.Errorf("near-identical strings too far apart: %g", cosine(base, near))
	}
}

func TestEmbedFieldSalting(t *testing.T) {
	e := NewHashingEmbedder()
	// The same token in different fields must embed differently.
	a := e.Embed("run,x")
	b := e.Embed("x,run")
	if cosine(a, b) > 0.9 {
		t.Errorf("field salting missing: cosine = %g", cosine(a, b))
	}
	// And the same multi-field string must equal itself regardless of
	// how it was assembled.
	c := e.Embed(strings.Join([]string{"run", "x"}, ","))
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("string assembly changed the embedding")
		}
	}
}

func TestEmbedFieldWeights(t *testing.T) {
	heavy := NewHashingEmbedder()
	heavy.FieldWeights = []float32{4, 1}
	light := NewHashingEmbedder()
	light.FieldWeights = []float32{0.25, 1}
	// Two strings differing only in field 0: a heavier field 0 must
	// push them further apart.
	const s1, s2 = "u0001,samejob", "u0002,samejob"
	dHeavy := cosine(heavy.Embed(s1), heavy.Embed(s2))
	dLight := cosine(light.Embed(s1), light.Embed(s2))
	if dHeavy >= dLight {
		t.Errorf("field weights ineffective: heavy cos %g, light cos %g", dHeavy, dLight)
	}
}

func TestEmbedIntoValidation(t *testing.T) {
	e := NewHashingEmbedder()
	defer func() {
		if recover() == nil {
			t.Error("EmbedInto accepted wrong-length destination")
		}
	}()
	e.EmbedInto("x", make([]float32, 5))
}

// TestEmbedIntoAllocationFree: up to the served dimension EmbedInto
// allocates nothing — the field scratch, both bitmaps and the
// tokenizer's word buffer live in its frame. A wider ablation embedder
// pays its two scratch buffers, the field accumulator and the bitmaps.
func TestEmbedIntoAllocationFree(t *testing.T) {
	const s = "u123,cfd_prod_01,48,1,gcc/12 fftw,2000"
	for _, c := range []struct {
		dim    int
		allocs float64
	}{{Dim, 0}, {64, 0}, {2 * Dim, 2}} {
		e, dst := NewHashingEmbedderDim(c.dim), make([]float32, c.dim)
		e.FieldWeights = FieldWeightsFor(DefaultFeatures())
		if got := testing.AllocsPerRun(100, func() { e.EmbedInto(s, dst) }); got != c.allocs {
			t.Errorf("EmbedInto allocates %v times a call at %d dims, want %v", got, c.dim, c.allocs)
		}
	}
}

func TestNewHashingEmbedderDimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("accepted dim = 0")
		}
	}()
	NewHashingEmbedderDim(0)
}

func TestEmbedCustomDim(t *testing.T) {
	e := NewHashingEmbedderDim(64)
	v := e.Embed("hello,world")
	if len(v) != 64 {
		t.Fatalf("len = %d", len(v))
	}
	if n := linalg.Norm2(v); math.Abs(n-1) > 1e-5 {
		t.Errorf("norm = %g", n)
	}
}

func TestEmbedEmptyAndWeirdStrings(t *testing.T) {
	e := NewHashingEmbedder()
	for _, s := range []string{"", ",", ",,,", "日本語", "---///###"} {
		v := e.Embed(s)
		if len(v) != Dim {
			t.Fatalf("%q: dim %d", s, len(v))
		}
		n := linalg.Norm2(v)
		if n != 0 && math.Abs(n-1) > 1e-5 {
			t.Errorf("%q: norm = %g, want 0 or 1", s, n)
		}
	}
}

func TestEmbedNormProperty(t *testing.T) {
	e := NewHashingEmbedder()
	f := func(s string) bool {
		v := e.Embed(s)
		n := linalg.Norm2(v)
		return n == 0 || math.Abs(n-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tokens steps the tokenizer over s and returns its words and trigrams.
func tokens(s string) (words, tris []string) {
	toks := tokenizer{s: s}
	for tok, word, ok := toks.next(); ok; tok, word, ok = toks.next() {
		if word {
			words = append(words, string(tok))
		} else {
			tris = append(tris, string(tok))
		}
	}
	return words, tris
}

func TestTokenize(t *testing.T) {
	words, tris := tokens("CFD_prod01 v2")
	wantWords := []string{"cfd", "prod01", "v2"}
	if len(words) != len(wantWords) {
		t.Fatalf("words = %v", words)
	}
	for i := range wantWords {
		if words[i] != wantWords[i] {
			t.Fatalf("words = %v, want %v", words, wantWords)
		}
	}
	// Trigrams of "cfd": {cfd}; of "prod01": {pro,rod,od0,d01}; "v2" none.
	if len(tris) != 5 {
		t.Errorf("trigram count = %d (%v), want 5", len(tris), tris)
	}
}

func TestTokenizeLongWordTruncation(t *testing.T) {
	words, _ := tokens(strings.Repeat("a", 200) + " tail")
	if len(words) != 2 {
		t.Fatalf("words = %d, want 2", len(words))
	}
	if len(words[0]) != 64 {
		t.Errorf("long word not truncated to buffer: len = %d", len(words[0]))
	}
	if words[1] != "tail" {
		t.Errorf("tail word = %q", words[1])
	}
}
