package main

import (
	"runtime"

	"mcbound/benchmark/fixture"
	"mcbound/internal/ml/ivf"
)

// counters is a point-in-time reading of the counts the layers keep:
// taken before and after a timed section, the difference is the work
// the section caused — measured where the work happens.
type counters struct {
	cacheHits, cacheMisses uint64
	probes, reranked       int64
	mallocs, allocBytes    uint64
	gcCycles               uint32
	gcPauseNS              uint64
	hedges, retries        int64
	walAppends, walFsyncs  int64
}

// readCounters reads every counter of the fixture and the runtime.
// ReadMemStats stops the world, so it is never called inside a timed
// section.
func readCounters(fx *fixture.Fixture) counters {
	var c counters
	for _, n := range fx.AllNodes() {
		cs := n.FW.Encoder().CacheStats()
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
	}
	c.probes, c.reranked = ivf.TotalProbes(), ivf.TotalReranked()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcCycles, c.gcPauseNS = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	if fx.Router != nil {
		c.hedges, c.retries = fx.Router.Hedges(), fx.Router.Budget().Retries()
	}
	if fx.Durable != nil {
		ws := fx.Durable.Stats()
		c.walAppends, c.walFsyncs = ws.Appends, ws.Fsyncs
	}
	return c
}

// add accumulates the difference after − before into c.
func (c *counters) add(before, after counters) {
	c.cacheHits += after.cacheHits - before.cacheHits
	c.cacheMisses += after.cacheMisses - before.cacheMisses
	c.probes += after.probes - before.probes
	c.reranked += after.reranked - before.reranked
	c.mallocs += after.mallocs - before.mallocs
	c.allocBytes += after.allocBytes - before.allocBytes
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcPauseNS += after.gcPauseNS - before.gcPauseNS
	c.hedges += after.hedges - before.hedges
	c.retries += after.retries - before.retries
	c.walAppends += after.walAppends - before.walAppends
	c.walFsyncs += after.walFsyncs - before.walFsyncs
}
