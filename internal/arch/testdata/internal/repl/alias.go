package repl

import tm "time"

// An aliased import.
func backoff() { tm.Sleep(tm.Second) } // want clock
