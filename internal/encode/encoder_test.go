package encode

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"mcbound/internal/job"
)

func testJob(i int) *job.Job {
	return &job.Job{
		ID:             fmt.Sprintf("j%03d", i),
		User:           fmt.Sprintf("u%04d", i%7),
		Name:           fmt.Sprintf("app_%02d", i%11),
		Environment:    "gcc/12.2",
		CoresRequested: 48 * (1 + i%4),
		NodesRequested: 1 + i%4,
		FreqRequested:  job.FreqNormal,
		SubmitTime:     time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC),
	}
}

func TestFeatureString(t *testing.T) {
	j := testJob(0)
	got := FeatureString(j, DefaultFeatures())
	want := "u0000,app_00,48,1,gcc/12.2,2000MHz"
	if got != want {
		t.Errorf("FeatureString = %q, want %q", got, want)
	}
	got = FeatureString(j, BaselineFeatures())
	if got != "app_00,48" {
		t.Errorf("baseline FeatureString = %q", got)
	}
}

// TestFeatureStringMatchesSprintfRendering pins the feature string byte
// for byte against the fmt.Sprintf rendering it had before the ints went
// through strconv: it keys the embedding cache and feeds the embedder,
// so one differing byte would silently change every prediction.
func TestFeatureStringMatchesSprintfRendering(t *testing.T) {
	sprintf := func(j *job.Job, feats []Feature) string {
		out := ""
		for i, f := range feats {
			if i > 0 {
				out += ","
			}
			switch f {
			case FeatUser:
				out += j.User
			case FeatJobName:
				out += j.Name
			case FeatCoresRequested:
				out += fmt.Sprintf("%d", j.CoresRequested)
			case FeatNodesRequested:
				out += fmt.Sprintf("%d", j.NodesRequested)
			case FeatEnvironment:
				out += j.Environment
			case FeatFrequency:
				out += fmt.Sprintf("%dMHz", int(j.FreqRequested))
			}
		}
		return out
	}
	long := make([]byte, 3*featureStringHint)
	for i := range long {
		long[i] = 'a' + byte(i%26)
	}
	jobs := []*job.Job{
		testJob(0),
		{}, // every int 0, every string empty
		{User: "u", Name: "n", Environment: "e", CoresRequested: -48, NodesRequested: -1, FreqRequested: -2000},
		{User: "a,b", Name: "späce name", CoresRequested: 1 << 40, NodesRequested: 158976, FreqRequested: job.FreqBoost},
		{User: string(long), Name: string(long), Environment: string(long), CoresRequested: 7}, // spills the stack buffer
	}
	featureSets := [][]Feature{
		DefaultFeatures(), BaselineFeatures(), {}, {FeatFrequency}, {FeatNodesRequested, FeatNodesRequested},
		{FeatUser, Feature(99), FeatCoresRequested}, // unknown features render empty
	}
	for ji, j := range jobs {
		for fi, feats := range featureSets {
			want := sprintf(j, feats)
			if got := FeatureString(j, feats); got != want {
				t.Errorf("job %d, feature set %d: FeatureString = %q, Sprintf rendering %q", ji, fi, got, want)
			}
		}
	}
}

// TestEncodeDistinct: one vector per distinct feature string, in order
// of first appearance, and a row index that maps every job — whatever
// its ID — to the vector EncodeJob gives it; with the cache on, off, and
// too small to hold the batch.
func TestEncodeDistinct(t *testing.T) {
	jobs := make([]*job.Job, 300)
	for i := range jobs {
		jobs[i] = testJob((i * 7) % 40)       // 40 distinct strings, interleaved
		jobs[i].ID = fmt.Sprintf("id%03d", i) // each under its own ID
	}
	for _, capacity := range []int{DefaultCacheCapacity, 0, 16} {
		e := NewEncoder(nil, nil)
		e.SetCacheCapacity(capacity)
		dist, rows := e.EncodeDistinct(jobs, 0)
		if len(rows) != len(jobs) {
			t.Fatalf("capacity %d: %d rows for %d jobs", capacity, len(rows), len(jobs))
		}
		seen := map[string]int{}
		for i, j := range jobs {
			key := FeatureString(j, e.features)
			d, ok := seen[key]
			if !ok {
				d = len(seen)
				seen[key] = d
			}
			if rows[i] != d {
				t.Fatalf("capacity %d: job %d maps to vector %d, want %d (first appearance order)", capacity, i, rows[i], d)
			}
			want := e.EncodeJob(j)
			for k := range want {
				if dist[d].Vec[k] != want[k] {
					t.Fatalf("capacity %d: job %d: vector differs from EncodeJob at %d", capacity, i, k)
				}
			}
		}
		if len(dist) != len(seen) {
			t.Fatalf("capacity %d: %d vectors for %d distinct strings", capacity, len(dist), len(seen))
		}
	}
	if dist, rows := NewEncoder(nil, nil).EncodeDistinct(nil, 1); len(dist) != 0 || len(rows) != 0 {
		t.Errorf("empty batch: %d vectors, %d rows", len(dist), len(rows))
	}
}

func TestFeatureValueCoversAll(t *testing.T) {
	j := testJob(3)
	for f := Feature(0); f < numFeatures; f++ {
		if len(appendFeatureValue(nil, j, f)) == 0 {
			t.Errorf("feature %v rendered empty", f)
		}
		if f.String() == "" {
			t.Errorf("feature %d has no name", f)
		}
	}
	if len(appendFeatureValue(nil, j, Feature(99))) != 0 {
		t.Error("unknown feature should render empty")
	}
}

func TestFieldWeightsFor(t *testing.T) {
	w := FieldWeightsFor(DefaultFeatures())
	if len(w) != len(DefaultFeatures()) {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] <= w[len(w)-1] {
		t.Errorf("user weight %g not above frequency weight %g", w[0], w[len(w)-1])
	}
}

// TestEncodeJobCaching: EncodeJob embeds without touching the cache — no
// hit, miss or entry — and gives the bits Encode gives at first sight
// and at second, when the cache holds the string.
func TestEncodeJobCaching(t *testing.T) {
	e := NewEncoder(nil, nil)
	j := testJob(1)
	a := e.EncodeJob(j)
	b := e.EncodeJob(j)
	if st := e.CacheStats(); st != (CacheStats{}) {
		t.Errorf("stats = %+v: EncodeJob touched the cache", st)
	}
	for sight := 1; sight <= 2; sight++ {
		if v := e.Encode([]*job.Job{j})[0]; !sameBits(a, b) || !sameBits(a, v) {
			t.Errorf("sight %d: Encode and EncodeJob differ", sight)
		}
	}
	if st := e.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v: Encode did not store, then find, the string", st)
	}
}

// TestReturnedVectorsAreTheCallers: writing into a vector EncodeJob,
// Encode or EncodeDistinct returned — the miss's or a hit's — leaves the
// next hit on the same key unchanged.
func TestReturnedVectorsAreTheCallers(t *testing.T) {
	e := NewEncoder(nil, nil)
	j := testJob(1)
	want := append([]float32(nil), e.EncodeJob(j)...)
	scribble := func(v []float32) {
		for i := range v {
			v[i] = float32(math.NaN())
		}
	}
	for round := 0; round < 3; round++ {
		scribble(e.EncodeJob(j))
		for _, v := range e.Encode([]*job.Job{j, j}) {
			scribble(v)
		}
		dist, _ := e.EncodeDistinct([]*job.Job{j, testJob(2)}, 0)
		for _, d := range dist {
			scribble(d.Vec)
		}
		if got := e.Encode([]*job.Job{j})[0]; !sameBits(got, want) {
			t.Fatalf("round %d: a write into a returned vector reached the cache", round)
		}
	}
	if st := e.CacheStats(); st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses (one a key)", st)
	}
}

// TestCacheEntryRetainsNoVector: a cache filled to capacity with
// never-seen strings retains under 300 B an entry — its key, map slot,
// list element and note. A vector kept beside them, even as its ≈ 89
// nonzero coordinates, would add ≈ 540 B.
func TestCacheEntryRetainsNoVector(t *testing.T) {
	const capacity = 4096
	jobs := make([]*job.Job, 3*capacity)
	for i := range jobs {
		jobs[i] = testJob(i)
		jobs[i].Name = fmt.Sprintf("never_seen_%05d", i)
	}
	e := NewEncoder(nil, nil)
	e.SetCacheCapacity(capacity)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e.Encode(jobs) // the vectors are dropped: only the cache keeps anything
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(jobs) // freeing the inputs would offset what the cache holds
	if n := e.CacheStats().Entries; n != capacity {
		t.Fatalf("%d entries, want the cache full at %d", n, capacity)
	}
	perEntry := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / capacity
	t.Logf("%d B retained an entry", perEntry)
	if perEntry > 300 {
		t.Errorf("the cache retains %d B an entry, budget 300", perEntry)
	}
}

func TestEncodeBatchMatchesSingle(t *testing.T) {
	e := NewEncoder(nil, nil)
	jobs := make([]*job.Job, 100)
	for i := range jobs {
		jobs[i] = testJob(i)
	}
	batch := e.Encode(jobs)
	fresh := NewEncoder(nil, nil)
	for i, j := range jobs {
		single := fresh.EncodeJob(j)
		for d := range single {
			if batch[i][d] != single[d] {
				t.Fatalf("job %d dim %d: batch %g vs single %g", i, d, batch[i][d], single[d])
			}
		}
	}
}

func TestEncodeEmptyBatch(t *testing.T) {
	e := NewEncoder(nil, nil)
	if out := e.Encode(nil); len(out) != 0 {
		t.Errorf("Encode(nil) returned %d rows", len(out))
	}
}

func TestCacheCapacityBoundsEntries(t *testing.T) {
	e := NewEncoder(nil, nil)
	e.SetCacheCapacity(32)
	for i := 0; i < 500; i++ {
		e.Encode([]*job.Job{testJob(i)})
	}
	if n := e.CacheStats().Entries; n > 32 {
		t.Errorf("cache size %d exceeds capacity 32", n)
	}
	st := e.CacheStats()
	if st.Evictions == 0 {
		t.Error("no evictions despite exceeding capacity")
	}
	if st.Misses == 0 {
		t.Error("misses not counted")
	}
}

func TestCacheDisabled(t *testing.T) {
	e := NewEncoder(nil, nil)
	e.SetCacheCapacity(0)
	j := []*job.Job{testJob(1)}
	e.Encode(j)
	e.Encode(j)
	if n := e.CacheStats().Entries; n != 0 {
		t.Errorf("disabled cache holds %d entries", n)
	}
	if st := e.CacheStats(); st.Hits != 0 {
		t.Errorf("disabled cache reported %d hits", st.Hits)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	e := NewEncoder(nil, nil)
	j := []*job.Job{testJob(1)}
	e.Encode(j)
	e.Encode(j)
	e.Encode([]*job.Job{testJob(2)})
	st := e.CacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestEncoderCustomFeatures(t *testing.T) {
	e := NewEncoder(BaselineFeatures(), nil)
	if len(e.features) != 2 {
		t.Fatalf("features = %v", e.features)
	}
	// Jobs differing only in user must encode identically under the
	// baseline feature subset.
	a, b := testJob(0), testJob(0)
	b.User = "someone-else"
	va, vb := e.EncodeJob(a), e.EncodeJob(b)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("baseline features leaked the user feature")
		}
	}
	if e.Dim() != Dim {
		t.Errorf("Dim = %d", e.Dim())
	}
}

// lengthEmbedder is a second Embedder: the string's length on axis 0.
type lengthEmbedder struct{ dim int }

func (e lengthEmbedder) Dim() int { return e.dim }

func (e lengthEmbedder) Embed(s string) []float32 {
	v := make([]float32, e.dim)
	v[0] = float32(len(s))
	return v
}

// The Encoder must accept any Embedder implementation (the paper's "this
// method can be modified to leverage any encoding technique").
func TestEncoderWithCustomEmbedder(t *testing.T) {
	e := NewEncoder(DefaultFeatures(), lengthEmbedder{dim: 8})
	j := []*job.Job{testJob(0)}
	for _, v := range [][]float32{e.EncodeJob(j[0]), e.Encode(j)[0], e.Encode(j)[0]} { // bare, the miss, then the hit
		if e.Dim() != 8 || len(v) != 8 || v[0] != float32(len(FeatureString(j[0], DefaultFeatures()))) {
			t.Fatalf("dim %d, vector %v: not the custom embedder's", e.Dim(), v)
		}
	}
}
