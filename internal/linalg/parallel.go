package linalg

import (
	"runtime"
	"sync"
)

// ParallelFor splits [0, n) into one contiguous chunk per worker (at
// most GOMAXPROCS, never more than n) and runs f(lo, hi) on each,
// returning when all are done; a single chunk runs on the caller's
// goroutine. It is the single fan-out of the inference path: the batch
// kernels (RF traversal, KNN scan, IVF build, bulk embedding) and the
// wire decoder (job.UnmarshalArray on a body above its split floor)
// split here and nowhere above, so a worker gets the largest chunk the
// batch allows.
func ParallelFor(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}
