// Plants for the clock/reads rule in a package that holds a Clock.
package httpapi

import "time"

func observe(t0 time.Time) time.Duration {
	return time.Since(t0) // want clock/reads
}

// Negative control: a difference of two instants read off the Clock.
func age(t, u time.Time) time.Duration { return t.Sub(u) }
