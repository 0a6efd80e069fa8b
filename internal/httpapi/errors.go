package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"mcbound/internal/admission"
	"mcbound/internal/core"
	"mcbound/internal/election"
	"mcbound/internal/job"
	"mcbound/internal/repl"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
	"mcbound/internal/wal"
)

// Stable error codes the front door originates on its own behalf —
// exported because routers return them without going through
// errToStatus (the failure never reached a backend handler).
const (
	// CodeNoLeader: a write arrived while no member holds the lease
	// (brownout). 503 + Retry-After; the write was not attempted.
	CodeNoLeader = "no_leader"
	// CodeNoBackend: no member can serve the read — every candidate is
	// down, ejected, or too stale. 503.
	CodeNoBackend = "no_backend"
	// CodeUpstream: the chosen backend failed mid-request (transport
	// error). 502; a write may or may not have been applied.
	CodeUpstream = "upstream_error"
	// CodeRetryBudget: the router's global retry budget is exhausted, so
	// the failure was returned instead of retried. 503.
	CodeRetryBudget = "retry_budget_exhausted"
)

// Stable error codes of the v1 API.
const (
	codeBadRequest   = "bad_request"
	codeBadCursor    = "bad_cursor"
	codeInvalidJob   = "invalid_job"
	codeNotFound     = "not_found"
	codeNotTrained   = "not_trained"
	codeBodyTooLarge = "body_too_large"
	codeNotLeader    = "not_leader"
	codeIsLeader     = "already_leader"
	codeNoRepl       = "replication_disabled"
	codeLeaseLost    = "lease_lost"
	codeNoLease      = "no_lease"
	codeCanceled     = "canceled"
	codeDeadline     = "deadline_exceeded"
	codeBreakerOpen  = "breaker_open"
	codeOverloaded   = "overloaded"
	codeInternal     = "internal"
)

// errBadRequest marks client errors detected in the handler layer
// (malformed JSON, bad query parameters). Wrap with badRequest.
var errBadRequest = errors.New("bad request")

// badRequest tags err as a client error while keeping its chain intact
// (a MaxBytesError inside still maps to 413).
func badRequest(err error) error {
	return fmt.Errorf("%w: %w", errBadRequest, err)
}

// errToStatus is the single mapper from Go errors to HTTP status and
// machine-readable code. Order matters: body-size overflows surface
// through JSON decode errors and must win over the bad-request tag.
func errToStatus(err error) (status int, code string) {
	var maxBytes *http.MaxBytesError
	switch {
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge, codeBodyTooLarge
	case errors.Is(err, ErrBadCursor):
		return http.StatusBadRequest, codeBadCursor
	case errors.Is(err, job.ErrInvalid):
		return http.StatusBadRequest, codeInvalidJob
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, codeBadRequest
	case errors.Is(err, store.ErrNotFound), errors.Is(err, wal.ErrUnknownFile):
		return http.StatusNotFound, codeNotFound
	case errors.Is(err, repl.ErrNotLeader):
		// 421: the request reached a server that cannot produce an
		// authoritative response; Location (set by leaderOnly) names the
		// node that can.
		return http.StatusMisdirectedRequest, codeNotLeader
	case errors.Is(err, repl.ErrAlreadyLeader):
		return http.StatusConflict, codeIsLeader
	case errors.Is(err, repl.ErrNoLog):
		return http.StatusConflict, codeNoRepl
	case errors.Is(err, election.ErrLeaseLost):
		// 503, not 421: the node is still the highest-epoch leader it
		// knows of, it just cannot prove it holds quorum. The client
		// retries against the cluster and lands wherever the lease went.
		return http.StatusServiceUnavailable, codeLeaseLost
	case errors.Is(err, election.ErrNoLease):
		return http.StatusServiceUnavailable, codeNoLease
	case errors.Is(err, core.ErrNotTrained):
		return http.StatusServiceUnavailable, codeNotTrained
	case errors.Is(err, resilience.ErrOpen):
		return http.StatusServiceUnavailable, codeBreakerOpen
	case errors.Is(err, admission.ErrQueueFull), errors.Is(err, admission.ErrDoomed):
		return http.StatusServiceUnavailable, codeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, codeCanceled
	default:
		return http.StatusInternalServerError, codeInternal
	}
}
