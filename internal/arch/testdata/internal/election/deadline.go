// Plants for the clock/deadlines rule in a package that holds a Clock:
// every way the standard library sets a deadline on the wall clock.
package election

import (
	"context"
	"errors"
	"net/http"
	"time"
)

func call(ctx context.Context, d time.Duration) {
	a, cancelA := context.WithTimeout(ctx, d) // want clock/deadlines
	defer cancelA()
	b, cancelB := context.WithDeadline(a, time.Time{}) // want clock/deadlines
	defer cancelB()
	c, cancelC := context.WithTimeoutCause(b, d, errors.New("slow")) // want clock/deadlines
	defer cancelC()
	_, cancelD := context.WithDeadlineCause(c, time.Time{}, nil) // want clock/deadlines
	defer cancelD()
}

// A client literal that carries its own deadline, under any spelling of
// the type.
type client = http.Client

var defaultClient = &http.Client{Timeout: 2 * time.Second} // want clock/deadlines

func newClient(d time.Duration) *client {
	return &client{
		Timeout: d, // want clock/deadlines
	}
}

var clients = []*http.Client{{Timeout: time.Second}} // want clock/deadlines

// Negative controls: a zero Timeout and a client without one, a field
// named Timeout on another type, and a cancel that sets no deadline.
var (
	plain    = &http.Client{Timeout: 0}
	bare     = http.Client{Transport: http.DefaultTransport}
	settings = struct{ Timeout time.Duration }{Timeout: time.Second}
)

type config struct{ Timeout time.Duration }

var cfg = config{Timeout: time.Second}

func stop(ctx context.Context) {
	_, cancel := context.WithCancel(ctx)
	cancel()
}
