package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcbound/internal/job"
)

// FuzzAppendPrediction: AppendJSON is json.Marshal, byte for byte, for
// every prediction — whatever the ID holds — and leaves what was already
// in the destination alone.
func FuzzAppendPrediction(f *testing.F) {
	f.Add("fj000000001", "memory-bound", 3, false)
	f.Add("", "unknown", 0, true)
	f.Add(`a<b>&"c"\d`, "compute-bound", -1, false)
	f.Add("tab\there\x00\x1f\x7f", "x", 1<<31, true)
	f.Add("流体解析 ", "bad\xffutf8", -1<<63, false)
	f.Fuzz(func(t *testing.T, id, class string, version int, degraded bool) {
		p := Prediction{JobID: id, Label: job.MemoryBound, Class: class, ModelVersion: version, Degraded: degraded}
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = "[prefix,"
		got := p.AppendJSON([]byte(prefix))
		if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendJSON wrote %q, json.Marshal gives %q", got, want)
		}
	})
}
