// The clock rule allows no function of the router: its hedge is armed
// on the router's clock like every other timer.
package router

import "time"

type Router struct{}

type hedgeRace struct{}

func (*hedgeRace) run() {}

func (rt *Router) attemptRead(hedgeAfter time.Duration) {
	race := &hedgeRace{}
	defer time.AfterFunc(hedgeAfter, race.run).Stop() // want clock
}
