package linalg

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversRangeOnce: every index of [0, n) lands in exactly
// one chunk, for n below, at and above the worker count, and a single
// chunk runs on the caller's goroutine.
func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 1000} {
			hits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			ParallelFor(n, func(lo, hi int) {
				chunks.Add(1)
				if lo >= hi {
					t.Errorf("procs %d, n %d: empty chunk [%d, %d)", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("procs %d, n %d: index %d visited %d times", procs, n, i, got)
				}
			}
			if got, most := int(chunks.Load()), min(procs, n); got > most {
				t.Errorf("procs %d, n %d: %d chunks, want at most %d", procs, n, got, most)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
