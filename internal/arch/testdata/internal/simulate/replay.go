// Negative control: simulate is the calendar's one walker.
package simulate

import (
	"time"

	"mcbound/internal/online"
)

func walk(p online.Params, from, to time.Time) (int, error) {
	triggers, err := online.Schedule(p, from, to)
	return len(triggers), err
}

// Negative control: a package that holds no Clock may time its own work.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
