package encode

import (
	"mcbound/internal/job"
	"mcbound/internal/linalg"
)

// Encoder is the MCBound Feature Encoder component: it filters the job
// features, renders the comma-separated string and embeds it. Feature
// strings are memoized in a sharded LRU with the label last given them —
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
func NewEncoder(features []Feature, embedder Embedder) *Encoder {
	if features == nil {
		features = DefaultFeatures()
	}
	if embedder == nil {
		he := NewHashingEmbedder()
		he.FieldWeights = FieldWeightsFor(features)
		embedder = he
	}
	return &Encoder{
		features: features,
		embedder: embedder,
		cache:    newShardedCache(DefaultCacheCapacity),
	}
}

// Dim returns the encoding dimensionality.
func (e *Encoder) Dim() int { return e.embedder.Dim() }

// EncodeJob returns the embedding of a single job. It neither reads nor
// fills the cache: only notes are memoized, and a lone vector has no one
// to take a note from. The returned slice belongs to the caller.
func (e *Encoder) EncodeJob(j *job.Job) []float32 {
	v := make([]float32, e.embedder.Dim())
	e.embed(FeatureString(j, e.features), v)
	return v
}

// embed writes key's embedding into v, allocating nothing through the
// hashing embedder.
func (e *Encoder) embed(key string, v []float32) {
	if he, ok := e.embedder.(*HashingEmbedder); ok {
		he.EmbedInto(key, v)
		return
	}
	copy(v, e.embedder.Embed(key))
}

// chunkBytes bounds the allocations EncodeDistinct cuts its vectors from.
// Every string without a note fills a vector of its own; cutting them 21
// at a time (at Dim) from allocations under Go's 32 KB large-object size
// halves what that costs a window. One slab for the whole batch would be
// a large object, slower than a vector apiece.
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

	// Hit reports that the string was found in the cache — second sight
	// or later. Its note was read from the entry, or, when that note is
	// not under the caller's stamp, its vector embedded again.
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

// EncodeMatrix embeds a training window once per distinct feature
// string, into one slab: data holds the distinct strings' vectors as
// rows of Dim, in order of first appearance, and jobs[i] encodes to row
// row[i]. Each string meets the cache as under Encode: a lookup, and a
// put when missing. The slab is the caller's alone, to hand to a model
// that keeps it (knn.TrainMatrix); nothing else refers to it.
//
// Keying is one serial pass whose map and key list grow with what they
// find: a window holds far fewer strings than jobs, and sizing them by
// the jobs makes the pass slower, not faster. The embeddings are split
// across all cores.
func (e *Encoder) EncodeMatrix(jobs []*job.Job) (data []float32, row []int32) {
	row = make([]int32, len(jobs))
	seen := map[string]int32{}
	var keys []string
	var buf [featureStringHint]byte
	for i, j := range jobs {
		b := appendFeatureString(buf[:0], j, e.features)
		r, ok := seen[string(b)]
		if !ok {
			r = int32(len(keys))
			key := string(b)
			keys = append(keys, key)
			seen[key] = r
		}
		row[i] = r
	}
	dim := e.embedder.Dim()
	data = make([]float32, len(keys)*dim)
	linalg.ParallelFor(len(keys), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			if _, hit := e.cache.get(keys[r], 0); !hit {
				e.cache.put(keys[r])
			}
			e.embed(keys[r], data[r*dim:(r+1)*dim])
		}
	})
	return data, row
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
// the stamp is the caller's and otherwise embedding it into a vector cut
// from a chunk, and storing the key of a string the cache did not hold.
// Concurrent misses on the same key both embed it, to the same bits, and
// both store it: the second put finds the entry and only promotes it.
func (e *Encoder) encodeRange(dist []Distinct, stamp uint64) {
	dim := e.embedder.Dim()
	perChunk := max(1, chunkBytes/(4*dim))
	var chunk []float32
	for k := range dist {
		d := &dist[k]
		note, hit := e.cache.get(d.key, stamp)
		d.Hit = hit
		if note != 0 {
			d.Note = note
			continue
		}
		if len(chunk) == 0 {
			chunk = make([]float32, min(len(dist)-k, perChunk)*dim)
		}
		d.Vec, chunk = chunk[:dim:dim], chunk[dim:]
		e.embed(d.key, d.Vec)
		if !hit {
			e.cache.put(d.key)
		}
	}
}

// SetNote writes note (MakeNote; 0 clears) onto the cache entry of d's
// string, if the cache still holds one. The note lives as long as that
// entry — an eviction drops it — and at a capacity of 0
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
