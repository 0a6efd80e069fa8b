// Package resilience is the failure-handling toolkit for the MCBound
// serving path: a generic retry executor with exponential backoff and
// deterministic jitter, and a three-state circuit breaker
// (closed → open → half-open). The paper's deployment (§V) runs MCBound
// as a long-lived service against a production job store — in that
// setting the data fetcher fails transiently, and inference must keep
// answering from whatever model it has rather than die with the fetch.
//
// The package is dependency-free and fully deterministic under test:
// jitter draws from stats.RNG (seeded), and the breaker and the retry
// backoff run on the clock.Clock they are given, so their tests run in
// virtual time.
//
// Error classification follows one rule: every error is retryable
// unless it is marked permanent (wrap with Permanent) or the caller's
// context is done. Domain layers mark their own non-retryable errors
// (e.g. the fetch layer marks store.ErrNotFound permanent) so the
// policy lives where the knowledge is.
package resilience

import (
	"errors"
	"fmt"
	"time"
)

// ErrOpen is the sentinel wrapped by every breaker rejection; callers
// branch with errors.Is and the HTTP layer maps it to 503.
var ErrOpen = errors.New("resilience: circuit breaker open")

// OpenError is the concrete breaker rejection. RetryAfter is the time
// until the breaker will admit a probe (surfaced as the Retry-After
// header by the HTTP layer).
type OpenError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: circuit breaker open (retry after %s)", e.RetryAfter)
}

// Unwrap links the rejection to ErrOpen for errors.Is.
func (e *OpenError) Unwrap() error { return ErrOpen }

// RetryAfter extracts the retry hint from a breaker rejection anywhere
// in err's chain. ok is false when err carries no hint.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *OpenError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// permanentError marks an error as non-retryable while keeping its
// chain intact for errors.Is/As.
type permanentError struct {
	err error
}

func (p *permanentError) Error() string { return p.err.Error() }

func (p *permanentError) Unwrap() error { return p.err }

// Permanent marks err as non-retryable: Retry returns it immediately
// instead of burning attempts. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err is marked non-retryable anywhere in
// its chain.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}
