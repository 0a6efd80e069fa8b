// Plants for the log rule: the router logs through its *slog.Logger,
// never through package log or a Printf-shaped hook.
package router

import (
	"log"
	"log/slog"
	"os"
)

type Config struct {
	Logf func(format string, args ...any) // want log
}

func (rt *Router) eject(id string) {
	log.Printf("router: ejected %s", id) // want log
}

var std = log.New(os.Stderr, "", 0) // want log

func brownout(msg string) {
	std.Printf("router: %s", msg) // want log
}

// Negative controls: a declared method of the Printf shape is not a
// hook, and a *slog.Logger is the logger.
func (rt *Router) logf(format string, args ...any) {}

func report(l *slog.Logger, id string) { l.Warn("router: ejected backend", "backend", id) }
