package store

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mcbound/internal/job"
)

func mkJob(id string, submit time.Time, durMin int) *job.Job {
	j := &job.Job{
		ID:             id,
		User:           "u0001",
		Name:           "test_job",
		Environment:    "gcc/12.2",
		CoresRequested: 48,
		NodesRequested: 1,
		NodesAllocated: 1,
		FreqRequested:  job.FreqNormal,
		SubmitTime:     submit,
	}
	if durMin > 0 {
		j.StartTime = submit.Add(time.Minute)
		j.EndTime = j.StartTime.Add(time.Duration(durMin) * time.Minute)
	}
	return j
}

var t0 = time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)

func TestInsertAndGet(t *testing.T) {
	s := New()
	j := mkJob("a", t0, 10)
	if err := s.Insert(j); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "a" {
		t.Errorf("got %s", got.ID)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("Get of missing id succeeded")
	}
	if err := s.Insert(&job.Job{}); err == nil {
		t.Error("Insert accepted empty id")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestInsertReplaceUpdatesIndexes(t *testing.T) {
	s := New()
	// First insert: submitted only (no end time).
	pending := mkJob("a", t0, 0)
	if err := s.Insert(pending); err != nil {
		t.Fatal(err)
	}
	if got := s.ExecutedBetween(t0, t0.AddDate(0, 1, 0)); len(got) != 0 {
		t.Fatalf("pending job appeared in executed index: %d", len(got))
	}
	// Completion record arrives: same ID, now with execution data.
	done := mkJob("a", t0, 30)
	if err := s.Insert(done); err != nil {
		t.Fatal(err)
	}
	got := s.ExecutedBetween(t0, t0.AddDate(0, 1, 0))
	if len(got) != 1 || got[0].EndTime.IsZero() {
		t.Fatalf("completed job missing from executed index")
	}
	if s.Len() != 1 {
		t.Errorf("replace grew the store: Len = %d", s.Len())
	}
}

func TestExecutedBetweenMatchesNaiveScan(t *testing.T) {
	s := New()
	var all []*job.Job
	for i := 0; i < 300; i++ {
		j := mkJob(fmt.Sprintf("j%03d", i), t0.Add(time.Duration(i*37)*time.Minute), 1+i%120)
		all = append(all, j)
		if err := s.Insert(j); err != nil {
			t.Fatal(err)
		}
	}
	f := func(aRaw, bRaw uint16) bool {
		a := t0.Add(time.Duration(aRaw%20000) * time.Minute)
		b := t0.Add(time.Duration(bRaw%20000) * time.Minute)
		if b.Before(a) {
			a, b = b, a
		}
		got := s.ExecutedBetween(a, b)
		want := 0
		for _, j := range all {
			if !j.EndTime.Before(a) && j.EndTime.Before(b) {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].EndTime.Before(got[i-1].EndTime) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSubmittedBetween(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		if err := s.Insert(mkJob(fmt.Sprintf("j%02d", i), t0.Add(time.Duration(i)*time.Hour), 10)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.SubmittedBetween(t0.Add(10*time.Hour), t0.Add(20*time.Hour))
	if len(got) != 10 {
		t.Fatalf("got %d jobs, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].SubmitTime.Before(got[i-1].SubmitTime) {
			t.Fatal("not ordered by submission")
		}
	}
}

// TrainInstant is the newest completion, whatever order the jobs
// arrived in and however late they were submitted; now stands in only
// while no job has completed.
func TestTrainInstant(t *testing.T) {
	s := New()
	now := t0.AddDate(1, 0, 0)
	if got := s.TrainInstant(now); !got.Equal(now) {
		t.Fatalf("empty store: %v, want now %v", got, now)
	}
	if err := s.Insert(mkJob("running", t0.Add(time.Hour), 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.TrainInstant(now); !got.Equal(now) {
		t.Fatalf("no completion: %v, want now %v", got, now)
	}
	long, short := mkJob("long", t0, 600), mkJob("short", t0.Add(2*time.Hour), 5)
	if err := s.Insert(long, short); err != nil {
		t.Fatal(err)
	}
	if got := s.TrainInstant(now); !got.Equal(long.EndTime) {
		t.Fatalf("TrainInstant = %v, want the newest completion %v", got, long.EndTime)
	}
}

func TestAllOrdering(t *testing.T) {
	s := New()
	// Same submit instant: order must fall back to ID for determinism.
	for _, id := range []string{"c", "a", "b"} {
		if err := s.Insert(mkJob(id, t0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	all := s.All()
	if all[0].ID != "a" || all[1].ID != "b" || all[2].ID != "c" {
		t.Errorf("All order: %s %s %s", all[0].ID, all[1].ID, all[2].ID)
	}
}

// The indexes sort (time, ID) keys copied out of the records; the order
// must be the one the (Equal, Before, ID) comparator over the records
// gives, on runs of equal instants — one of them the same instant in two
// zones — and on the zero time.
func TestKeyedOrderMatchesComparator(t *testing.T) {
	tokyo := time.FixedZone("JST", 9*3600)
	var jobs []*job.Job
	for i := 0; i < 60; i++ {
		var at time.Time // every fifth record has no submit time
		switch i % 5 {
		case 1:
			at = t0
		case 2:
			at = t0.In(tokyo)
		case 3:
			at = t0.Add(time.Duration(i%4) * time.Nanosecond)
		case 4:
			at = t0.Add(-time.Duration(i%3) * time.Second)
		}
		j := mkJob(fmt.Sprintf("k%02d", (i*37)%60), at, 0)
		if i%2 == 0 {
			j.EndTime = at // the zero time leaves a record out of the executed index
		}
		jobs = append(jobs, j)
	}
	s := New()
	if err := s.Insert(jobs...); err != nil {
		t.Fatal(err)
	}
	byComparator := func(keep func(*job.Job) bool, at func(*job.Job) time.Time) []string {
		var idx []*job.Job
		for _, j := range jobs {
			if keep(j) {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(i, k int) bool {
			if at(idx[i]).Equal(at(idx[k])) {
				return idx[i].ID < idx[k].ID
			}
			return at(idx[i]).Before(at(idx[k]))
		})
		return jobIDs(idx)
	}
	all := func(*job.Job) bool { return true }
	if got, want := jobIDs(s.submittedIndex()), byComparator(all, func(j *job.Job) time.Time { return j.SubmitTime }); !slices.Equal(got, want) {
		t.Fatalf("submitted index %v, comparator %v", got, want)
	}
	done := func(j *job.Job) bool { return !j.EndTime.IsZero() }
	if got, want := jobIDs(s.executedIndex()), byComparator(done, func(j *job.Job) time.Time { return j.EndTime }); !slices.Equal(got, want) {
		t.Fatalf("executed index %v, comparator %v", got, want)
	}
}

func jobIDs(jobs []*job.Job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

func TestJSONLRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		j := mkJob(fmt.Sprintf("j%02d", i), t0.Add(time.Duration(i)*time.Minute), 10+i)
		j.Counters = job.PerfCounters{Perf2: float64(i), Perf3: 2, Perf4: 3, Perf5: 4}
		if err := s.Insert(j); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("round trip lost jobs: %d vs %d", loaded.Len(), s.Len())
	}
	a, b := s.All(), loaded.All()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Counters != b[i].Counters || !a[i].SubmitTime.Equal(b[i].SubmitTime) {
			t.Fatalf("job %d differs after round trip", i)
		}
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"id\":\"a\"}\nnot-json\n")); err == nil {
		t.Error("ReadJSONL accepted malformed input")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := New()
	if err := s.Insert(mkJob("a", t0, 10)); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/jobs.jsonl"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 {
		t.Errorf("loaded %d jobs", loaded.Len())
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("LoadFile of missing path succeeded")
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := mkJob(fmt.Sprintf("w%d-%03d", w, i), t0.Add(time.Duration(i)*time.Minute), 5)
				if err := s.Insert(j); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.ExecutedBetween(t0, t0.Add(100*time.Hour))
				s.SubmittedBetween(t0, t0.Add(100*time.Hour))
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}
