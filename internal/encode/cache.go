package encode

import (
	"container/list"
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
const (
	cacheShardCount = 16 // power of two: shard pick is a mask

	// DefaultCacheCapacity bounds the encoder memo to ~1M entries
	// (≈1.5 GiB of 384-dim float32 at worst), matching the pre-LRU
	// wholesale-drop limit.
	DefaultCacheCapacity = 1 << 20
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

type cacheEntry struct {
	key string
	val []float32
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

// get returns the cached vector for key, promoting it to most recently
// used. The returned slice is shared and must not be mutated.
func (c *shardedCache) get(key string) ([]float32, bool) {
	s := &c.shards[shardIndex(key)]
	var val []float32
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.lru.MoveToFront(el)
		// Read the vector inside the critical section: a concurrent put
		// on the same key rebinds the entry's val field under this lock.
		val = el.Value.(*cacheEntry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// put stores key→val, evicting least-recently-used entries past the
// shard's capacity share.
func (c *shardedCache) put(key string, val []float32) {
	per := c.perShard.Load()
	if per <= 0 {
		return
	}
	s := &c.shards[shardIndex(key)]
	evicted := uint64(0)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.lru.MoveToFront(el)
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
