// A fan-out of the KNN scan's own.
package knn

import (
	"runtime"
	"sync"
)

func scan(n int, f func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < min(n, runtime.GOMAXPROCS(0)); w++ { // want fan-out/cores
		wg.Add(1)
		go func() { defer wg.Done(); f(w) }() // want fan-out
	}
	wg.Wait()
}
