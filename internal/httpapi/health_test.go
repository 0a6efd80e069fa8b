package httpapi

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcbound/internal/cluster"
	"mcbound/internal/repl"
	"mcbound/internal/store"
)

// Health replaced a map[string]any, which encoding/json writes in key
// order. At the two levels Health declares itself — the document and
// its replay section — the fields must stay in that order, or the bytes
// of /healthz change under clients that never asked for it.
func TestHealthEncodesInKeyOrder(t *testing.T) {
	age := 1.5
	doc := Health{
		Breaker: "closed", Cluster: &cluster.Status{Self: "n1"}, Degraded: true,
		Durability: &store.DurabilityHealth{Policy: "always"}, Jobs: 3,
		Replay:      &ReplayHealth{State: "idle", Speed: 2},
		Replication: &repl.NodeStatus{Role: "leader"}, StalenessSeconds: &age,
		Status: "ok", Trained: true,
	}
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(got, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("%d keys encoded, want all 10 sections and fields: %s", len(top), got)
	}
	for name, level := range map[string][]byte{"document": got, "replay section": top["replay"]} {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(level, &keys); err != nil {
			t.Fatal(err)
		}
		sorted, err := json.Marshal(keys) // a map encodes in key order, values untouched
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(level, sorted) {
			t.Errorf("%s encodes as\n%s\nin key order it is\n%s", name, level, sorted)
		}
	}
}
