package encode

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// The embedding cache exploits the paper's batch-duplication observation
// (§V: "latest"-subsampled windows replicate recent samples, and live
// submission streams repeat the same app/user feature strings). Sixteen
// shards each hold an independent LRU behind a private mutex, so
// concurrent Classify batches on different keys almost never contend on
// the same lock, while the per-key routing stays stable (one key always
// lands in one shard).
//
// An entry keeps the feature string and one word for its caller, the
// note (SetNote), and no vector: the serving path writes there the label
// the served model gave the string, so a recurring submission is
// answered from its entry with no vector and no model. A string the
// entry cannot answer for is embedded again — ≈ 3 µs, and deterministic,
// so the vector has the bits it had at first sight. The note lives and
// dies with its entry — it has no map, bound or eviction of its own —
// and an entry recycled for another key starts with none.
const (
	cacheShardCount = 16 // power of two: shard pick is a mask

	// DefaultCacheCapacity bounds the encoder memo to 65 536 entries
	// (4 096 a shard): 2.5× the 26 455 distinct feature strings of the
	// whole 91-day scale-1 trace, so the paper's recurring strings keep
	// their notes, while never-repeating names cycle through the LRU at
	// ≈ 12 MB (≈ 175 B an entry measured: the key, its map slot, list
	// element and entry) instead of piling up.
	DefaultCacheCapacity = 1 << 16
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// cacheEntry is 24 B: the key and the note.
type cacheEntry struct {
	key  string
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

type cacheShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   list.List // front = most recently used
}

// shardedCache is a fixed-shard, per-shard-LRU set of strings, each with
// its note.
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
// (nonzero) it returns that note; otherwise note is 0.
func (c *shardedCache) get(key string, stamp uint64) (note uint64, ok bool) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.lru.MoveToFront(el)
		// Read inside the critical section: a concurrent put or setNote on
		// the same key rebinds the entry's fields under this lock.
		if n := el.Value.(*cacheEntry).note; stamp != 0 && n>>noteShift == stamp {
			note = n
		}
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	c.hits.Add(1)
	return note, true
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

// put stores key, evicting least-recently-used entries past the shard's
// capacity share. A new key in a full shard takes over the least recently
// used entry — its list element and cacheEntry — with the note cleared,
// so a miss past capacity allocates neither.
func (c *shardedCache) put(key string) {
	per := c.perShard.Load()
	if per <= 0 {
		return
	}
	s := &c.shards[shardIndex(key)]
	evicted := uint64(0)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el) // same key: the note stands
	} else if back := s.lru.Back(); back != nil && int64(s.lru.Len()) >= per {
		ent := back.Value.(*cacheEntry)
		delete(s.items, ent.key)
		*ent = cacheEntry{key: key}
		s.lru.MoveToFront(back)
		s.items[key] = back
		evicted++
	} else {
		s.items[key] = s.lru.PushFront(&cacheEntry{key: key})
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

// stats snapshots the counters and entry count.
func (c *shardedCache) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.len(),
	}
}
