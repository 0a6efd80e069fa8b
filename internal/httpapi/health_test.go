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
// order. The fields Health declares itself must stay in that order, or
// the bytes of /healthz change under clients that never asked for it.
func TestHealthEncodesInKeyOrder(t *testing.T) {
	age := 1.5
	doc := Health{
		Breaker: "closed", Cluster: &cluster.Status{Self: "n1"}, Degraded: true,
		Durability: &store.DurabilityHealth{Policy: "always"}, Jobs: 3,
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
	if len(top) != 9 {
		t.Fatalf("%d keys encoded, want all 9 sections and fields: %s", len(top), got)
	}
	sorted, err := json.Marshal(top) // a map encodes in key order, values untouched
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sorted) {
		t.Errorf("the document encodes as\n%s\nin key order it is\n%s", got, sorted)
	}
}
