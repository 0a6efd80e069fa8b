package httpapi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/peer"
	"mcbound/internal/router"
)

const (
	goodJob = `[{"id":"rt1","user":"u1","name":"x","cores_req":4,"nodes_req":1,"freq_req":2000,"submit":"2024-03-01T00:00:00Z"}]`
	badJSON = `{not json`
)

// overCap is twice the fixtures' 4 KiB body cap; the leading whitespace
// keeps a decoder reading until the cap cuts it off.
var overCap = strings.Repeat(" ", 8<<10) + "[]"

// routeTable is the serving surface, one row a request: what a
// standalone node, a lease-holding leader and a follower answer —
// "status" or "status code", the code being the error envelope's; ""
// does not send the row to that role. routed is the answer through a
// router fronting the leader. Rows run top to bottom against one fixture
// a role, so the one row that changes a role is the last.
var routeTable = []struct {
	req, body                    string
	standalone, leader, follower string
	routed                       string
}{
	{req: "GET /healthz", standalone: "200", leader: "200", follower: "200"},
	{req: "GET /metrics", standalone: "200", leader: "200", follower: "200"},
	{req: "GET /v1/model", standalone: "200", leader: "200", follower: "200", routed: "200"},

	{req: "POST /v1/train", body: `{"now":"2024-01-20T00:00:00Z"}`, standalone: "200", leader: "200", follower: "200"},
	{req: "POST /v1/train", body: `{"now":"yesterday"}`, standalone: "400 bad_request", leader: "400 bad_request", follower: "400 bad_request"},
	{req: "POST /v1/train", body: overCap, standalone: "413 body_too_large", leader: "413 body_too_large", follower: "413 body_too_large"},

	{req: "POST /v1/jobs", body: goodJob, standalone: "200", leader: "200", follower: "421 not_leader"},
	{req: "POST /v1/jobs", body: badJSON, standalone: "400 bad_request", leader: "400 bad_request", follower: "421 not_leader"},
	{req: "POST /v1/jobs", body: overCap, standalone: "413 body_too_large", leader: "413 body_too_large", follower: "421 not_leader"},
	{req: "GET /v1/jobs", standalone: "405", leader: "405", follower: "405"},

	{req: "GET /v1/classify/s0000", standalone: "200", leader: "200", follower: "200"},
	{req: "GET /v1/classify/nope", standalone: "404 not_found", leader: "404 not_found", follower: "404 not_found"},
	{req: "POST /v1/classify", body: goodJob, standalone: "200", leader: "200", follower: "200"},
	{req: "POST /v1/classify", body: badJSON, standalone: "400 bad_request", leader: "400 bad_request", follower: "400 bad_request"},
	{req: "POST /v1/classify", body: overCap, standalone: "413 body_too_large", leader: "413 body_too_large", follower: "413 body_too_large"},
	{req: "GET /v1/classify?start=2024-01-10T00:00:00Z&end=2024-01-12T00:00:00Z", standalone: "200", leader: "200", follower: "200"},
	{req: "GET /v1/classify?start=tomorrow&end=2024-01-12T00:00:00Z", standalone: "400 bad_request", leader: "400 bad_request", follower: "400 bad_request"},

	// The long-lived routes of PR 6 are gone: the mux's 404 at a node, and
	// through the router one relayed 404 (a hang fails on the client's timeout).
	{req: "GET /v1/predictions/stream", standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "POST /v1/jobs/stream", body: goodJob[1:len(goodJob)-1] + "\n", standalone: "404", leader: "404", follower: "404", routed: "404"},

	// So is GET /v1/characterize (PR 27: artifact A2 runs the characterizer
	// in-process), and so is the server-side replay: a replay is a client
	// of the node — simulate.Replay, or mcbound train and mcbound infer on
	// a calendar — and the node hosts none.
	{req: "GET /v1/characterize?start=2024-01-01T00:00:00Z&end=2024-01-03T00:00:00Z", standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "POST /v1/replay", body: `{"start":"2024-01-10T00:00:00Z","end":"2024-01-17T00:00:00Z"}`, standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "GET /v1/replay", standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "POST /v1/replay/pause", standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "POST /v1/replay/resume", standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "DELETE /v1/replay", standalone: "404", leader: "404", follower: "404", routed: "404"},

	// Replication and the elector are not mounted on a standalone node.
	{req: "GET /v1/wal/segments", standalone: "404", leader: "200", follower: "421 not_leader"},
	{req: "GET /v1/wal/segments/nope", standalone: "404", leader: "404 not_found", follower: "421 not_leader"},
	{req: "GET /v1/lease", standalone: "404", leader: "200", follower: "503 no_lease"},
	{req: "POST /v1/lease/ack", body: `{}`, standalone: "404", leader: "400 bad_request", follower: "400 bad_request"},
	{req: "POST /v1/lease/ack", body: overCap, standalone: "404", leader: "413 body_too_large", follower: "413 body_too_large"},
	// The membership view has no route of its own: it is /healthz's "cluster" section.
	{req: "GET /v1/cluster", standalone: "404", leader: "404", follower: "404", routed: "404"},
	{req: "POST /v1/promote", body: overCap, standalone: "404", leader: "409 already_leader"},
	{req: "POST /v1/promote", standalone: "404", leader: "409 already_leader", follower: "200"},
}

// TestRouteTable sends every row to one fixture a role, and fails on a
// pattern a fixture registered that no row sent to it matches.
func TestRouteTable(t *testing.T) {
	client := &http.Client{Timeout: 10 * time.Second}
	request := func(base, req, body string) *http.Request {
		method, target, _ := strings.Cut(req, " ")
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		r, err := http.NewRequest(method, base+target, rd)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	send := func(r *http.Request) string {
		resp, err := client.Do(r)
		if err != nil {
			return err.Error()
		}
		defer resp.Body.Close()
		var e peer.ErrorBody
		if raw, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK && json.Unmarshal(raw, &e) == nil && e.Code != "" {
			return fmt.Sprintf("%d %s", resp.StatusCode, e.Code)
		}
		return fmt.Sprint(resp.StatusCode)
	}

	var leaderURL string
	for i, role := range []string{"standalone", "leader", "follower"} {
		api := httpapi.NewRoleFixture(t, role)
		srv := httptest.NewServer(api)
		t.Cleanup(srv.Close)
		if role == "leader" {
			leaderURL = srv.URL
		}
		// A mux of the fixture's own patterns names the one a row matches.
		registered, matched := http.NewServeMux(), map[string]bool{}
		for _, p := range api.Patterns() {
			registered.Handle(p, http.NotFoundHandler())
		}
		for _, row := range routeTable {
			want := [...]string{row.standalone, row.leader, row.follower}[i]
			if want == "" {
				continue
			}
			r := request(srv.URL, row.req, row.body)
			_, pattern := registered.Handler(r)
			matched[pattern] = true
			if got := send(r); got != want {
				t.Errorf("%s: %s (%d-byte body): got %s, want %s", role, row.req, len(row.body), got, want)
			}
		}
		for _, p := range api.Patterns() {
			if !matched[p] {
				t.Errorf("%s: registered pattern %q has no row in routeTable", role, p)
			}
		}
	}

	rt, err := router.New(router.Config{Backends: []cluster.Member{{ID: "n1", URL: leaderURL}}})
	if err != nil {
		t.Fatal(err)
	}
	rt.RefreshNow(context.Background())
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	for _, row := range routeTable {
		if row.routed == "" {
			continue
		}
		if got := send(request(front.URL, row.req, row.body)); got != row.routed {
			t.Errorf("routed: %s: got %s, want %s", row.req, got, row.routed)
		}
	}
}

// TestSurfaceTableMatchesRoutes: the route rows of DESIGN.md §8's
// surface table — who needs each route — are the patterns the three
// role fixtures register between them, no more and no fewer, so a route
// cannot be added or dropped without its row.
func TestSurfaceTableMatchesRoutes(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	inTable := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "| Route |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable && strings.HasPrefix(line, "| `"):
			cell, _, _ := strings.Cut(line[len("| `"):], "`")
			pattern, _, _ := strings.Cut(cell, "?") // "GET /v1/classify?start=&end=" is the pattern "GET /v1/classify"
			documented = append(documented, pattern)
		}
	}
	var mounted []string
	for _, role := range []string{"standalone", "leader", "follower"} {
		for _, p := range httpapi.NewRoleFixture(t, role).Patterns() {
			if !slices.Contains(mounted, p) {
				mounted = append(mounted, p)
			}
		}
	}
	slices.Sort(documented)
	slices.Sort(mounted)
	if !slices.Equal(documented, mounted) {
		t.Errorf("DESIGN.md §8's surface table has the route rows\n  %q\nthe server mounts\n  %q", documented, mounted)
	}
}
