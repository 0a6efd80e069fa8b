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
	key := FeatureString(j, e.features)
	v := make([]float32, e.embedder.Dim())
	val, _, hit := e.cache.get(key, 0)
	e.fill(key, v, val, hit)
	return v
}

// fill writes key's embedding into v (zeroed): on a hit it scatters the
// cached coordinates val into it, on a miss it embeds straight into it
// and stores its sparse copy.
func (e *Encoder) fill(key string, v []float32, val sparseVec, hit bool) {
	if hit {
		val.scatter(v)
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

// Distinct is one distinct feature string of an EncodeDistinct batch.
type Distinct struct {
	key string

	// Vec is the string's embedding, the caller's; nil when Note answers
	// for it.
	Vec []float32

	// Note is the string's cache note (MakeNote) when its stamp is the
	// one EncodeDistinct was given, and 0 otherwise.
	Note uint64

	// Hit reports that the string was found in the cache: its vector was
	// scattered from an entry (or its note read from one), not embedded.
	Hit bool
}

// EncodeDistinct embeds a batch once per distinct feature string — the
// trace's defining structure is batch submission of identical jobs, so
// a window of submissions holds far fewer strings than jobs. It returns
// the distinct strings in order of first appearance and, for every job,
// the index of its string: jobs[i] encodes to dist[rows[i]]. A string
// whose cache entry carries a note with the caller's nonzero stamp comes
// back with that note and no vector; stamp 0 asks for vectors only.
// Keying is one serial pass; the cache lookups and embeddings of the
// distinct strings are split across all cores. Vectors are cut from
// shared allocations of at most chunkBytes, so one kept vector keeps its
// chunk alive.
func (e *Encoder) EncodeDistinct(jobs []*job.Job, stamp uint64) (dist []Distinct, rows []int) {
	rows = make([]int, len(jobs))
	dist = make([]Distinct, 0, len(jobs))
	var seen map[string]int
	if len(jobs) > 1 { // a lone job has nothing to collide with
		seen = make(map[string]int, len(jobs))
	}
	var buf [featureStringHint]byte
	for i, j := range jobs {
		b := appendFeatureString(buf[:0], j, e.features)
		d, ok := seen[string(b)]
		if !ok {
			d = len(dist)
			dist = append(dist, Distinct{key: string(b)})
			if seen != nil {
				seen[dist[d].key] = d
			}
		}
		rows[i] = d
	}
	e.encodeAll(dist, stamp)
	return dist, rows
}

// encodeAll runs encodeRange over dist split across the cores, or on the
// caller's goroutine for a lone string: no worker to start and no closure
// to allocate.
func (e *Encoder) encodeAll(dist []Distinct, stamp uint64) {
	if len(dist) == 1 {
		e.encodeRange(dist, stamp)
		return
	}
	linalg.ParallelFor(len(dist), func(lo, hi int) { e.encodeRange(dist[lo:hi], stamp) })
}

// encodeRange looks each of dist up in the cache, taking its note when
// the stamp is the caller's and its vector — cut from a chunk only then —
// otherwise.
func (e *Encoder) encodeRange(dist []Distinct, stamp uint64) {
	dim := e.embedder.Dim()
	perChunk := max(1, chunkBytes/(4*dim))
	var chunk []float32
	for k := range dist {
		d := &dist[k]
		val, note, hit := e.cache.get(d.key, stamp)
		d.Hit = hit
		if note != 0 {
			d.Note = note
			continue
		}
		if len(chunk) == 0 {
			chunk = make([]float32, min(len(dist)-k, perChunk)*dim)
		}
		d.Vec, chunk = chunk[:dim:dim], chunk[dim:]
		e.fill(d.key, d.Vec, val, hit)
	}
}

// SetNote writes note (MakeNote; 0 clears) onto the cache entry of d's
// string, if the cache still holds one. The note lives as long as that
// entry — an eviction or ResetCache drops it — and at a capacity of 0
// nothing is noted.
func (e *Encoder) SetNote(d *Distinct, note uint64) { e.cache.setNote(d.key, note) }

// Encode embeds a batch of jobs; result row i corresponds to jobs[i].
// The vectors are the caller's; jobs with equal feature strings share
// one.
func (e *Encoder) Encode(jobs []*job.Job) [][]float32 {
	dist, rows := e.EncodeDistinct(jobs, 0)
	out := make([][]float32, len(jobs))
	for i, d := range rows {
		out[i] = dist[d].Vec
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
