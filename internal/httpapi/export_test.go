package httpapi

import (
	"net/http"
	"testing"

	"mcbound/internal/replay"
	"mcbound/internal/store"
)

// What routes_test.go (package httpapi_test: it fronts a fixture with the
// router, which imports this package) needs of the in-package helpers.

// NewRoleFixture builds a trained API of the given role ("standalone",
// "leader" or "follower") with every surface that role can mount — the
// replay resource on all three, replication and the elector on leader
// and follower — under a 4 KiB body cap. The replay manager is wired but
// never started.
func NewRoleFixture(t *testing.T, role string) *Server {
	t.Helper()
	opts := Options{
		MaxBodyBytes: 4 << 10,
		Replay:       replay.NewManager(replay.Options{Source: store.New(), Client: http.DefaultClient}),
	}
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
