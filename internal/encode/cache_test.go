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
	return v, c.get(key, v)
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
