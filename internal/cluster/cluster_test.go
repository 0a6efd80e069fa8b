package cluster

import (
	"strings"
	"testing"
	"time"
)

func TestParsePeers(t *testing.T) {
	m, err := ParsePeers("n2", "n1=http://a:1/, n2=http://b:2, n3=http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	if m.Self() != (Member{ID: "n2", URL: "http://b:2"}) {
		t.Fatalf("self = %+v", m.Self())
	}
	if m.Size() != 3 || m.Quorum() != 2 {
		t.Fatalf("size %d quorum %d, want 3 and 2", m.Size(), m.Quorum())
	}
	all := m.All()
	if all[0].ID != "n1" || all[1].ID != "n2" || all[2].ID != "n3" {
		t.Fatalf("members not sorted by id: %+v", all)
	}
	if all[0].URL != "http://a:1" {
		t.Fatalf("trailing slash not trimmed: %q", all[0].URL)
	}
	peers := m.Peers()
	if len(peers) != 2 || peers[0].ID != "n1" || peers[1].ID != "n3" {
		t.Fatalf("peers = %+v", peers)
	}
}

func TestParsePeersRejectsBadSpecs(t *testing.T) {
	for name, tc := range map[string]struct{ self, spec string }{
		"self missing":  {"n9", "n1=http://a,n2=http://b"},
		"duplicate id":  {"n1", "n1=http://a,n1=http://b"},
		"no equals":     {"n1", "n1=http://a,n2"},
		"empty id":      {"n1", "n1=http://a,=http://b"},
		"empty url":     {"n1", "n1=,n2=http://b"},
		"empty list":    {"n1", " , "},
		"empty self id": {"", "n1=http://a"},
	} {
		if _, err := ParsePeers(tc.self, tc.spec); err == nil {
			t.Errorf("%s: ParsePeers(%q, %q) accepted", name, tc.self, tc.spec)
		}
	}
}

func TestParseMemberList(t *testing.T) {
	members, err := ParseMemberList("n1=http://a:1/, n2=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("got %d members", len(members))
	}
	if members[0].ID != "n1" || members[0].URL != "http://a:1" {
		t.Fatalf("member[0] = %+v, want trimmed n1=http://a:1", members[0])
	}
	if members[1].URL != "http://b:2" {
		t.Fatalf("member[1] = %+v", members[1])
	}
	for _, bad := range []string{"", "n1", "n1=", "=http://a:1", "n1=http://a:1,n1=http://b:2"} {
		if _, err := ParseMemberList(bad); err == nil {
			t.Errorf("ParseMemberList(%q) accepted", bad)
		}
	}
}

func TestQuorumSizes(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4} {
		var members []Member
		for i := 0; i < n; i++ {
			id := string(rune('a' + i))
			members = append(members, Member{ID: id, URL: "http://" + id})
		}
		m, err := New("a", members)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Quorum(); got != want {
			t.Errorf("quorum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestViewSnapshot(t *testing.T) {
	m, err := ParsePeers("n1", "n1=http://a,n2=http://b,n3=http://c")
	if err != nil {
		t.Fatal(err)
	}
	v := NewView()
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	v.Observe("n1", "leader", 4, 100, t0)
	v.Observe("n2", "follower", 4, 98, t0.Add(-2*time.Second))
	// An ack without a role keeps the prior role.
	v.Observe("n2", "", 4, 99, t0.Add(-time.Second))
	// Observations of strangers are kept but not rendered.
	v.Observe("ghost", "follower", 1, 1, t0)

	snap := v.Snapshot(m, t0)
	if len(snap) != 3 {
		t.Fatalf("snapshot rows = %d, want 3", len(snap))
	}
	if !snap[0].Self || snap[0].Role != "leader" || snap[0].Term != 4 {
		t.Fatalf("self row = %+v", snap[0])
	}
	if snap[1].Role != "follower" || snap[1].AppliedSeq != 99 {
		t.Fatalf("n2 row = %+v", snap[1])
	}
	if got := snap[1].LastSeenSeconds; got != 1 {
		t.Fatalf("n2 last seen = %v, want 1", got)
	}
	if snap[2].Role != "unknown" || snap[2].LastSeenSeconds != -1 {
		t.Fatalf("never-seen row = %+v", snap[2])
	}
	for _, row := range snap {
		if strings.Contains(row.ID, "ghost") {
			t.Fatal("stranger rendered into the member table")
		}
	}
}
