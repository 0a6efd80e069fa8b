// Negative control: ParallelFor is the one fan-out.
package linalg

import (
	"runtime"
	"sync"
)

func ParallelFor(n int, f func(lo, hi int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); f(w*n/workers, (w+1)*n/workers) }()
	}
	wg.Wait()
}
