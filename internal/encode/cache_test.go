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

// TestCachedEmbeddingBitIdentical is the property "cached vs uncached
// embeddings are bit-identical for any feature string": for arbitrary
// job features, the first sight's encoding, the second's — a cache hit,
// embedded again — and a bare embedder run over the canonical feature
// string agree bit for bit.
func TestCachedEmbeddingBitIdentical(t *testing.T) {
	e := NewEncoder(nil, nil)
	emb := NewHashingEmbedder()
	emb.FieldWeights = FieldWeightsFor(DefaultFeatures())
	prop := func(user, name, env string, cores, nodes uint16) bool {
		j := []*job.Job{{
			ID: "q", User: user, Name: name, Environment: env,
			CoresRequested: int(cores), NodesRequested: int(nodes),
			FreqRequested: job.FreqNormal,
		}}
		miss, _ := e.EncodeDistinct(j, 0) // first sight: stored
		hit, _ := e.EncodeDistinct(j, 0)  // second sight: found, re-embedded
		bare := emb.Embed(FeatureString(j[0], DefaultFeatures()))
		return !miss[0].Hit && hit[0].Hit && sameBits(miss[0].Vec, hit[0].Vec) && sameBits(hit[0].Vec, bare)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestShardRoutingStable is the property "shard routing is stable under
// concurrent Get/Put": a key's shard index never changes, and after
// arbitrary concurrent writers and readers every key is still held with
// exactly the note that was set on it (entries never migrate or
// cross-contaminate between shards).
func TestShardRoutingStable(t *testing.T) {
	const stamp = 1
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

		val := func(k string) uint64 {
			return MakeNote(stamp, uint8(len(k))^salt^uint8(shardIndex(k)))
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
							c.put(k)
							c.setNote(k, val(k))
						} else if note, _ := c.get(k, stamp); note != 0 && note != val(k) {
							panic("cache returned a foreign note")
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
			if note, ok := c.get(k, stamp); !ok || note != val(k) {
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
	c.put(a)
	c.put(b) // evicts a (capacity 1 in this shard)
	if _, ok := c.get(a, 0); ok {
		t.Error("evicted key still resident")
	}
	if _, ok := c.get(b, 0); !ok {
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
	c.put(keys[0])
	const stamp = 3
	c.setNote(keys[0], MakeNote(stamp, 7))
	if note, _ := c.get(keys[0], stamp); note != MakeNote(stamp, 7) {
		t.Fatalf("note %#x, want the one set", note)
	}
	c.put(keys[1]) // recycles keys[0]'s entry
	if note, ok := c.get(keys[1], stamp); !ok || note != 0 {
		t.Fatalf("recycled entry: cached %v, note %#x; want cached, no note", ok, note)
	}
	if _, ok := c.get(keys[0], stamp); ok {
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
	for _, k := range keys[:4] {
		c.put(k)
	}
	i := 4
	allocs := testing.AllocsPerRun(200, func() {
		c.put(keys[i%len(keys)])
		i++
	})
	if allocs != 0 {
		t.Errorf("a miss into a full shard allocates %.1f times, want 0", allocs)
	}
}

// TestEncodeDistinctNotes: a string whose entry carries a note with the
// caller's stamp comes back with the note and no vector — still a cache
// hit — while any other stamp, or stamp 0, gets its vector embedded
// again; SetNote finds
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

	e = NewEncoder(nil, nil)
	e.SetNote(&dist[0], MakeNote(5, 2)) // no entry: nothing to note
	dist, _ = e.EncodeDistinct(jobs, 5)
	if dist[0].Note != 0 || dist[0].Hit {
		t.Errorf("fresh encoder: note %#x, hit %v", dist[0].Note, dist[0].Hit)
	}
	e.SetCacheCapacity(0)
	e.SetNote(&dist[0], MakeNote(5, 2))
	if dist, _ = e.EncodeDistinct(jobs, 5); dist[0].Note != 0 {
		t.Errorf("capacity 0: note %#x kept", dist[0].Note)
	}
}
