package httpapi

import (
	"log"
	"net/http"
	"testing"

	"mcbound/internal/admission"
)

// What routes_test.go (package httpapi_test: it fronts a fixture with the
// router, which imports this package) needs of the in-package helpers.

// NewRoleFixture builds a trained API of the given role ("standalone",
// "leader" or "follower") with every surface that role can mount —
// replication and the elector on leader and follower — under a 4 KiB
// body cap.
func NewRoleFixture(t *testing.T, role string) *Server {
	t.Helper()
	opts := Options{MaxBodyBytes: 4 << 10}
	switch role {
	case "leader":
		api, _, _ := newElectedLeader(t, opts)
		return api
	case "follower":
		api, _, _ := newElectedFollower(t, newReplPair(t), opts)
		return api
	}
	return newAPI(t, seedStore(t), nil, true, opts)
}

// Patterns lists the mux patterns New registered, in order.
func (s *Server) Patterns() []string { return s.patterns }

// NewPanicServer builds an untrained API logging to logger, with one
// extra route, GET /v1/boom, whose handler panics.
func NewPanicServer(t *testing.T, logger *log.Logger) *Server {
	t.Helper()
	s := newAPI(t, seedStore(t), nil, false, Options{})
	s.log = logger
	s.route("GET /v1/boom", admission.Interactive, func(http.ResponseWriter, *http.Request) { panic("boom") })
	return s
}
