package encode

import (
	"mcbound/internal/job"
	"mcbound/internal/linalg"
)

// Encoder is the MCBound Feature Encoder component: it filters the job
// features, renders the comma-separated string and embeds it. Encodings
// are memoized in a sharded LRU keyed by the canonical feature string —
// the paper caches characterizations and encodings across workflow
// triggers to avoid redundant computation, and live submission streams
// repeat feature strings heavily — and batch encoding is parallelized
// across cores. All methods are safe for concurrent use.
type Encoder struct {
	features []Feature
	embedder Embedder
	cache    *shardedCache
}

// NewEncoder builds an Encoder over the given feature subset and
// embedder. Nil features defaults to DefaultFeatures; nil embedder to the
// hashing embedder. The embedding cache starts at DefaultCacheCapacity.
// It panics on an embedder wider than 1 << 16, the most a cache entry's
// uint16 indices address.
func NewEncoder(features []Feature, embedder Embedder) *Encoder {
	if features == nil {
		features = DefaultFeatures()
	}
	if embedder == nil {
		he := NewHashingEmbedder()
		he.FieldWeights = FieldWeightsFor(features)
		embedder = he
	}
	if embedder.Dim() > maxSparseDim {
		panic("encode: embedder dim must be <= 1 << 16")
	}
	return &Encoder{
		features: features,
		embedder: embedder,
		cache:    newShardedCache(DefaultCacheCapacity),
	}
}

// Features returns the encoder's feature subset.
func (e *Encoder) Features() []Feature { return e.features }

// Dim returns the encoding dimensionality.
func (e *Encoder) Dim() int { return e.embedder.Dim() }

// EncodeJob returns the embedding of a single job, from cache when the
// identical feature string was seen before. The returned slice belongs to
// the caller: writing into it changes no later result.
func (e *Encoder) EncodeJob(j *job.Job) []float32 {
	v := make([]float32, e.embedder.Dim())
	e.encodeInto(FeatureString(j, e.features), v)
	return v
}

// encodeInto writes key's embedding into v (zeroed): a hit scatters the
// cached coordinates into it, a miss embeds straight into it and stores
// its sparse copy.
func (e *Encoder) encodeInto(key string, v []float32) {
	if e.cache.get(key, v) {
		return
	}
	// Concurrent misses on the same key may both embed; the embedding is
	// deterministic, so the duplicate work is harmless and lock-free.
	var bitStack [2 * Dim / 64]uint64
	var mask []uint64 // covers every coordinate of v that is not +0
	if he, ok := e.embedder.(*HashingEmbedder); ok {
		bitmaps := he.bitmaps(bitStack[:])
		he.embedMarked(key, v, bitmaps)
		mask = bitmaps[len(bitmaps)/2:] // the union of the tokens' hits
	} else {
		copy(v, e.embedder.Embed(key))
		mask = nonzeroMask(v)
	}
	if e.cache.storing() {
		e.cache.put(key, compact(v, mask))
	}
}

// chunkBytes bounds the allocations EncodeDistinct cuts its vectors from.
// A hit fills a vector of its own; cutting them 21 at a time (at Dim) from
// allocations under Go's 32 KB large-object size halves what that costs a
// window of cached strings. One slab for the whole batch would be a large
// object, slower than a vector apiece.
const chunkBytes = 32 << 10

// EncodeDistinct embeds a batch once per distinct feature string — the
// trace's defining structure is batch submission of identical jobs, so
// a window of submissions holds far fewer strings than jobs. It returns
// the distinct vectors in order of first appearance, each the caller's,
// and, for every job, the index of its vector: jobs[i] encodes to
// vecs[rows[i]]. Keying is one serial pass; the cache lookups and
// embeddings of the distinct strings are split across all cores. Vectors
// are cut from shared allocations of at most chunkBytes, so one kept
// vector keeps its chunk alive.
func (e *Encoder) EncodeDistinct(jobs []*job.Job) (vecs [][]float32, rows []int) {
	rows = make([]int, len(jobs))
	keys := make([]string, 0, len(jobs))
	var seen map[string]int
	if len(jobs) > 1 { // a lone job has nothing to collide with
		seen = make(map[string]int, len(jobs))
	}
	var buf [featureStringHint]byte
	for i, j := range jobs {
		b := appendFeatureString(buf[:0], j, e.features)
		d, ok := seen[string(b)]
		if !ok {
			d = len(keys)
			keys = append(keys, string(b))
			if seen != nil {
				seen[keys[d]] = d
			}
		}
		rows[i] = d
	}
	out := make([][]float32, len(keys))
	dim := e.embedder.Dim()
	perChunk := max(1, chunkBytes/(4*dim))
	linalg.ParallelFor(len(keys), func(lo, hi int) {
		var chunk []float32
		for d := lo; d < hi; d++ {
			if len(chunk) == 0 {
				chunk = make([]float32, min(hi-d, perChunk)*dim)
			}
			out[d], chunk = chunk[:dim:dim], chunk[dim:]
			e.encodeInto(keys[d], out[d])
		}
	})
	return out, rows
}

// Encode embeds a batch of jobs; result row i corresponds to jobs[i].
// The vectors are the caller's; jobs with equal feature strings share
// one.
func (e *Encoder) Encode(jobs []*job.Job) [][]float32 {
	vecs, rows := e.EncodeDistinct(jobs)
	out := make([][]float32, len(jobs))
	for i, d := range rows {
		out[i] = vecs[d]
	}
	return out
}

// SetCacheCapacity resizes the embedding cache to about n entries in
// total (split across shards); n <= 0 disables memoization. Shrinking
// evicts lazily as shards are next written.
func (e *Encoder) SetCacheCapacity(n int) { e.cache.setCapacity(n) }

// CacheStats snapshots hit/miss/eviction counters and the entry count.
func (e *Encoder) CacheStats() CacheStats { return e.cache.stats() }

// CacheSize returns the number of memoized feature strings.
func (e *Encoder) CacheSize() int { return e.cache.len() }

// ResetCache drops every memoized encoding (counters keep accumulating).
func (e *Encoder) ResetCache() { e.cache.reset() }
