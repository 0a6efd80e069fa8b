// Plants for the clock rule in a package it covers, written the way a
// text match misses them.
package repl

import "time"

// A selector broken over two lines.
func arm(d time.Duration, f func()) {
	defer time.
		AfterFunc(d, f).Stop() // want clock
}

// A time seam of the package's own, as a field, a parameter and a type.
type follower struct {
	now func() time.Time // want clock
}

func newFollower(now func() time.Time) *follower { return &follower{now: now} } // want clock

type nowFunc func() time.Time // want clock

// Negative controls. The method (time.Time).After is not a timer.
func expired(t, u time.Time) bool { return t.After(u) }

// A method, or an interface method, that returns a time.Time is not a
// seam.
func (f *follower) trainInstant() time.Time { return time.Time{} }

type stamped interface {
	Stamp() time.Time
}

// A go statement outside the inference packages is not a fan-out.
func spawn(f func()) { go f() }
