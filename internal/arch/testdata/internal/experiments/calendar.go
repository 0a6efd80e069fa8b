// A second walker of the calendar.
package experiments

import (
	"time"

	"mcbound/internal/online"
)

func walk(p online.Params, from, to time.Time) (int, error) {
	triggers, err := online.Schedule(p, from, to) // want calendar
	return len(triggers), err
}
