// The clock rule allows the router's hedge by function: attemptRead may
// arm its AfterFunc, and the same line in any other function fails.
package router

import "time"

type Router struct{}

type hedgeRace struct{}

func (*hedgeRace) run() {}

func (rt *Router) attemptRead(hedgeAfter time.Duration) {
	race := &hedgeRace{}
	defer time.AfterFunc(hedgeAfter, race.run).Stop()
}

func (rt *Router) attemptWrite(hedgeAfter time.Duration) {
	race := &hedgeRace{}
	defer time.AfterFunc(hedgeAfter, race.run).Stop() // want clock
}
