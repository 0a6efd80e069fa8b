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
