package job_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/workload"
)

// Every record of a generated trace — the records the store logs,
// snapshots and writes as JSONL — encodes to json.Marshal's bytes.
func TestAppendJSONMatchesMarshalOnTrace(t *testing.T) {
	jobs, err := workload.NewGenerator(workload.EvalConfig(0.005), 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i, j := range jobs {
		j.TrueLabel = job.Label(i % 3) // the characterizer's field too, omitted when unknown
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = job.AppendJSON(got[:0], j); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d (%s): AppendJSON wrote %s, json.Marshal gives %s", i, j.ID, got, want)
		}
	}
}
