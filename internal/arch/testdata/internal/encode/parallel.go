// A function is allowed by its full name: a ParallelFor of another
// package is not linalg's.
package encode

func ParallelFor(n int, f func(lo, hi int)) {
	done := make(chan struct{})
	go func() { f(0, n); close(done) }() // want fan-out
	<-done
}
