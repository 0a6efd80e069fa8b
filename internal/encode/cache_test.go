package encode

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"mcbound/internal/job"
)

// sameBits compares bit patterns, not values: a -0 is not a +0 and a NaN
// equals a NaN with its payload.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// putVec stores v under key as the encoder would: compacted by its bits.
func putVec(c *shardedCache, key string, v []float32) { c.put(key, compact(v, nonzeroMask(v))) }

// getVec reads key back into a fresh vector of width dim.
func getVec(c *shardedCache, key string, dim int) ([]float32, bool) {
	v := make([]float32, dim)
	val, _, ok := c.get(key, 0)
	if ok {
		val.scatter(v)
	}
	return v, ok
}

// TestCachedEmbeddingBitIdentical is the property "cached vs uncached
// embeddings are bit-identical for any feature string": for arbitrary
// job features, the cache-miss encoding, the cache-hit re-read and a
// bare embedder run over the canonical feature string agree bit for bit.
func TestCachedEmbeddingBitIdentical(t *testing.T) {
	e := NewEncoder(nil, nil)
	emb := NewHashingEmbedder()
	emb.FieldWeights = FieldWeightsFor(DefaultFeatures())
	prop := func(user, name, env string, cores, nodes uint16) bool {
		j := &job.Job{
			ID: "q", User: user, Name: name, Environment: env,
			CoresRequested: int(cores), NodesRequested: int(nodes),
			FreqRequested: job.FreqNormal,
		}
		miss := e.EncodeJob(j) // first sight: computed
		hit := e.EncodeJob(j)  // second sight: served from the cache
		bare := emb.Embed(FeatureString(j, DefaultFeatures()))
		return sameBits(miss, hit) && sameBits(hit, bare)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestShardRoutingStable is the property "shard routing is stable under
// concurrent Get/Put": a key's shard index never changes, and after
// arbitrary concurrent writers and readers every key still maps to
// exactly the value that was stored for it (entries never migrate or
// cross-contaminate between shards).
func TestShardRoutingStable(t *testing.T) {
	prop := func(rawKeys []string, salt uint8) bool {
		keys := make([]string, 0, len(rawKeys)+1)
		seen := map[string]bool{}
		for _, k := range rawKeys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		keys = append(keys, fmt.Sprintf("anchor-%d", salt))
		c := newShardedCache(16 * len(keys))

		val := func(k string) []float32 {
			return []float32{float32(len(k)), float32(salt), float32(shardIndex(k))}
		}
		route := make([]int, len(keys))
		for i, k := range keys {
			route[i] = shardIndex(k)
		}

		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					for _, k := range keys {
						if w%2 == 0 {
							putVec(c, k, val(k))
						} else {
							if v, ok := getVec(c, k, 3); ok && !sameBits(v, val(k)) {
								panic("cache returned a foreign value")
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()

		for i, k := range keys {
			if shardIndex(k) != route[i] {
				return false // routing drifted
			}
			v, ok := getVec(c, k, 3)
			if !ok || !sameBits(v, val(k)) {
				return false // entry lost or cross-contaminated
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCacheLRUOrder pins the recency contract directly: with a one-entry
// shard, touching a key keeps it resident while the untouched key is the
// one evicted.
func TestCacheLRUOrder(t *testing.T) {
	c := newShardedCache(cacheShardCount) // one entry per shard
	// Find two keys in the same shard.
	a := "key-a"
	b := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-b%d", i)
		if shardIndex(k) == shardIndex(a) {
			b = k
			break
		}
	}
	putVec(c, a, []float32{1})
	putVec(c, b, []float32{2}) // evicts a (capacity 1 in this shard)
	if _, ok := getVec(c, a, 1); ok {
		t.Error("evicted key still resident")
	}
	if v, ok := getVec(c, b, 1); !ok || v[0] != 2 {
		t.Error("most recent key missing")
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Errorf("stats = %+v, want an eviction", st)
	}
}

// sameShardKeys returns n distinct keys that route to one shard.
func sameShardKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); shardIndex(k) == shardIndex("key-0") {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRecycledEntryDropsNote: a new key in a full shard takes over the
// evicted entry, and never its note — a label noted for one feature
// string must not answer for another.
func TestRecycledEntryDropsNote(t *testing.T) {
	c := newShardedCache(cacheShardCount) // one entry per shard
	keys := sameShardKeys(2)
	putVec(c, keys[0], []float32{1})
	const stamp = 3
	c.setNote(keys[0], MakeNote(stamp, 7))
	if _, note, _ := c.get(keys[0], stamp); note != MakeNote(stamp, 7) {
		t.Fatalf("note %#x, want the one set", note)
	}
	putVec(c, keys[1], []float32{2}) // recycles keys[0]'s entry
	val, note, ok := c.get(keys[1], stamp)
	if !ok || note != 0 {
		t.Fatalf("recycled entry: cached %v, note %#x; want cached, no note", ok, note)
	}
	v := make([]float32, 1)
	val.scatter(v)
	if v[0] != 2 {
		t.Errorf("recycled entry holds %v, want the new key's vector", v)
	}
	if _, _, ok := c.get(keys[0], stamp); ok {
		t.Error("evicted key still resident")
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 eviction, 1 entry", st)
	}
}

// TestFullShardMissAllocatesNothing: past capacity a miss recycles the
// evicted list element and entry, so storing it allocates nothing.
func TestFullShardMissAllocatesNothing(t *testing.T) {
	c := newShardedCache(4 * cacheShardCount)
	keys := sameShardKeys(64)
	val := compact([]float32{1, 0, 0, 2}, nonzeroMask([]float32{1, 0, 0, 2}))
	for _, k := range keys[:4] {
		c.put(k, val)
	}
	i := 4
	allocs := testing.AllocsPerRun(200, func() {
		c.put(keys[i%len(keys)], val)
		i++
	})
	if allocs != 0 {
		t.Errorf("a miss into a full shard allocates %.1f times, want 0", allocs)
	}
}

// TestEncodeDistinctNotes: a string whose entry carries a note with the
// caller's stamp comes back with the note and no vector — still a cache
// hit — while any other stamp, or stamp 0, gets its vector; SetNote finds
// only an entry that exists and stores nothing at capacity 0.
func TestEncodeDistinctNotes(t *testing.T) {
	e := NewEncoder(nil, nil)
	jobs := []*job.Job{testJob(1), testJob(2), testJob(1)}
	want := NewEncoder(nil, nil).Encode(jobs[:2])
	dist, rows := e.EncodeDistinct(jobs, 5)
	if len(dist) != 2 || dist[0].Hit || dist[1].Hit || dist[0].Note != 0 || dist[0].Vec == nil {
		t.Fatalf("first sight: %d strings, hits %v %v, note %#x", len(dist), dist[0].Hit, dist[1].Hit, dist[0].Note)
	}
	e.SetNote(&dist[rows[0]], MakeNote(5, 2))
	hits := e.CacheStats().Hits
	dist, _ = e.EncodeDistinct(jobs, 5)
	if d := dist[0]; d.Note != MakeNote(5, 2) || d.Vec != nil || !d.Hit || NotePayload(d.Note) != 2 {
		t.Errorf("noted string: note %#x, vector %v, hit %v", d.Note, d.Vec != nil, d.Hit)
	}
	if d := dist[1]; d.Note != 0 || !sameBits(d.Vec, want[1]) || !d.Hit {
		t.Errorf("unnoted string: note %#x, hit %v", d.Note, d.Hit)
	}
	if got := e.CacheStats().Hits - hits; got != 2 {
		t.Errorf("%d cache hits for two cached strings, one noted", got)
	}
	for _, stamp := range []uint64{0, 4, 6} {
		dist, _ = e.EncodeDistinct(jobs, stamp)
		if d := dist[0]; d.Note != 0 || !sameBits(d.Vec, want[0]) || !d.Hit {
			t.Errorf("stamp %d: note %#x, hit %v", stamp, d.Note, d.Hit)
		}
	}

	e.ResetCache()
	e.SetNote(&dist[0], MakeNote(5, 2)) // no entry: nothing to note
	dist, _ = e.EncodeDistinct(jobs, 5)
	if dist[0].Note != 0 || dist[0].Hit {
		t.Errorf("after reset: note %#x, hit %v", dist[0].Note, dist[0].Hit)
	}
	e.SetCacheCapacity(0)
	e.SetNote(&dist[0], MakeNote(5, 2))
	if dist, _ = e.EncodeDistinct(jobs, 5); dist[0].Note != 0 {
		t.Errorf("capacity 0: note %#x kept", dist[0].Note)
	}
}
