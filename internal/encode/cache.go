package encode

import (
	"container/list"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The embedding cache exploits the paper's batch-duplication observation
// (§V: "latest"-subsampled windows replicate recent samples, and live
// submission streams repeat the same app/user feature strings): a
// duplicate submission skips tokenizing and hashing entirely. Sixteen shards
// each hold an independent LRU behind a private mutex, so concurrent
// Classify batches on different keys almost never contend on the same
// lock, while the per-key routing stays stable (one key always lands in
// one shard).
//
// An entry keeps only the coordinates the embedder set (sparseVec): the
// hashing embedder sets about 89 of 384, so an entry's vector is ≈ 540 B
// instead of 1 536. Every other coordinate of the vector is +0 — EmbedInto
// makes no -0 — so scattering the stored bits into zeroed memory restores
// the embedding bit for bit.
//
// An entry also keeps one word for its caller, the note (SetNote): the
// serving path writes there the label the served model gave the string,
// so a recurring submission is answered from its entry with no vector and
// no model. The note lives and dies with its entry — it has no map, bound
// or eviction of its own — and an entry recycled for another key starts
// with none.
const (
	cacheShardCount = 16 // power of two: shard pick is a mask

	// DefaultCacheCapacity bounds the encoder memo to 65 536 entries
	// (4 096 a shard): 2.5× the 26 455 distinct feature strings of the
	// whole 91-day scale-1 trace, so the paper's recurring strings are
	// never evicted, while never-repeating names cycle through the LRU at
	// ≈ 58 MB (≈ 894 B an entry measured, ≈ 540 B of it the sparse
	// vector) instead of piling up. No vector is stored larger than its
	// dense 1 536 B, so the vectors alone stay under 100 MiB at worst.
	DefaultCacheCapacity = 1 << 16
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// cacheEntry is 48 B: the key, the vector's slice header and the note.
type cacheEntry struct {
	key  string
	val  sparseVec
	note uint64 // 0: none
}

// noteShift splits a note: the stamp above it, an 8-bit payload below.
const noteShift = 8

// MakeNote packs a stamp (nonzero, below 1 << 56) and a payload into the
// word SetNote keeps on a cache entry. EncodeDistinct returns an entry's
// note, in place of its vector, when the note's stamp is the caller's.
func MakeNote(stamp uint64, payload uint8) uint64 { return stamp<<noteShift | uint64(payload) }

// NotePayload returns the payload MakeNote packed into note.
func NotePayload(note uint64) uint8 { return uint8(note) }

// sparseVec is a vector of uint16-indexed coordinates in one allocation:
// the n stored values' float32 bits, then their indices two to a word
// (the first in the low half). Its length is n + ⌈n/2⌉, so n is
// 2·len/3 rounded down. A vector that would take as many words as it has
// coordinates is kept whole instead — every coordinate's bits, in order —
// and told apart by that length, so no entry outgrows the dense vector.
type sparseVec []uint32

// maxSparseDim is the widest vector a uint16 index reaches.
const maxSparseDim = 1 << 16

// compact stores the coordinates of v set in mask — which must cover
// every coordinate whose bits are not +0's — walking the set bits only.
func compact(v []float32, mask []uint64) sparseVec {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	if n+(n+1)/2 >= len(v) {
		sv := make(sparseVec, len(v))
		for i, x := range v {
			sv[i] = math.Float32bits(x)
		}
		return sv
	}
	sv := make(sparseVec, n+(n+1)/2)
	vals, idx := sv[:n], sv[n:]
	k := 0
	for wi, w := range mask {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			vals[k] = math.Float32bits(v[i])
			idx[k>>1] |= uint32(i) << (16 * (k & 1))
			k++
		}
	}
	return sv
}

// nonzeroMask marks the coordinates of v whose bits are not +0's — the
// mask compact takes for a vector nothing else describes (an Embedder
// other than the hashing one). A -0 or a NaN is marked, and so kept.
func nonzeroMask(v []float32) []uint64 {
	mask := make([]uint64, (len(v)+63)/64)
	for i, x := range v {
		if math.Float32bits(x) != 0 {
			mask[i>>6] |= 1 << (i & 63)
		}
	}
	return mask
}

// scatter writes the stored coordinates into dst, which must be zeroed
// and as wide as the vector compacted.
func (sv sparseVec) scatter(dst []float32) {
	if len(sv) == len(dst) { // kept whole
		for i, b := range sv {
			dst[i] = math.Float32frombits(b)
		}
		return
	}
	n := 2 * len(sv) / 3
	vals, idx := sv[:n], sv[n:]
	for k, pair := range idx {
		dst[uint16(pair)] = math.Float32frombits(vals[2*k])
		if 2*k+1 < n {
			dst[pair>>16] = math.Float32frombits(vals[2*k+1])
		}
	}
}

type cacheShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   list.List // front = most recently used
}

// shardedCache is a fixed-shard, per-shard-LRU string→vector cache.
type shardedCache struct {
	shards   [cacheShardCount]cacheShard
	perShard atomic.Int64 // max entries per shard; <= 0 disables storing

	hits, misses, evictions atomic.Uint64
}

func newShardedCache(capacity int) *shardedCache {
	c := &shardedCache{}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
	}
	c.setCapacity(capacity)
	return c
}

// setCapacity resizes the cache to hold about capacity entries in total.
// Shrinking takes effect lazily as shards see their next Put.
func (c *shardedCache) setCapacity(capacity int) {
	per := int64(capacity / cacheShardCount)
	if capacity > 0 && per < 1 {
		per = 1
	}
	c.perShard.Store(per)
}

// shardIndex routes a key to its shard: FNV-1a folded through the
// splitmix64 finalizer so short, similar feature strings still spread.
func shardIndex(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(mix64(h) & (cacheShardCount - 1))
}

// get looks key up, promoting its entry to most recently used, and
// reports whether key was cached. When the entry's note carries stamp
// (nonzero) it returns that note; otherwise note is 0 and val is the
// cached vector, which is never written once stored (scatter it outside
// the lock).
func (c *shardedCache) get(key string, stamp uint64) (val sparseVec, note uint64, ok bool) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.lru.MoveToFront(el)
		// Read inside the critical section: a concurrent put or setNote on
		// the same key rebinds the entry's fields under this lock.
		ent := el.Value.(*cacheEntry)
		val = ent.val
		if stamp != 0 && ent.note>>noteShift == stamp {
			note = ent.note
		}
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	return val, note, true
}

// setNote writes note onto key's entry, if the cache holds one; it does
// not promote the entry.
func (c *shardedCache) setNote(key string, note uint64) {
	if !c.storing() {
		return
	}
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).note = note
	}
	s.mu.Unlock()
}

// storing reports whether put keeps anything: false once capacity is
// set to 0 or below.
func (c *shardedCache) storing() bool { return c.perShard.Load() > 0 }

// put stores key→val, evicting least-recently-used entries past the
// shard's capacity share. A new key in a full shard takes over the least
// recently used entry — its list element and cacheEntry — with the note
// cleared, so a miss past capacity allocates neither.
func (c *shardedCache) put(key string, val sparseVec) {
	per := c.perShard.Load()
	if per <= 0 {
		return
	}
	s := &c.shards[shardIndex(key)]
	evicted := uint64(0)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val // same key, same vector: the note stands
		s.lru.MoveToFront(el)
	} else if back := s.lru.Back(); back != nil && int64(s.lru.Len()) >= per {
		ent := back.Value.(*cacheEntry)
		delete(s.items, ent.key)
		*ent = cacheEntry{key: key, val: val}
		s.lru.MoveToFront(back)
		s.items[key] = back
		evicted++
	} else {
		s.items[key] = s.lru.PushFront(&cacheEntry{key: key, val: val})
	}
	for int64(s.lru.Len()) > per {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.items, back.Value.(*cacheEntry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// len counts entries across all shards.
func (c *shardedCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// reset drops every entry; the hit/miss/eviction counters keep
// accumulating (they feed monotonic telemetry).
func (c *shardedCache) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// stats snapshots the counters and entry count.
func (c *shardedCache) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.len(),
	}
}
