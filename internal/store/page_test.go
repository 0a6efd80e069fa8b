package store

import (
	"fmt"
	"testing"
	"time"

	"mcbound/internal/job"
)

// pageJob builds a minimal job with controllable submit/end keys.
func pageJob(id string, submit, end time.Time) *job.Job {
	return &job.Job{ID: id, User: "u", SubmitTime: submit, StartTime: submit, EndTime: end}
}

func TestSubmittedPageWalk(t *testing.T) {
	st := New()
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	var want []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("j%02d", i)
		// Two jobs share each submit instant, so the ID tiebreak is
		// exercised on every page boundary.
		submit := base.Add(time.Duration(i/2) * time.Hour)
		if err := st.Insert(pageJob(id, submit, submit.Add(time.Minute))); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}

	var got []string
	after := Pos{}
	for {
		items, more := st.SubmittedPage(base, base.AddDate(0, 0, 1), after, 3)
		for _, j := range items {
			got = append(got, j.ID)
		}
		if !more {
			break
		}
		last := items[len(items)-1]
		after = Pos{Time: last.SubmitTime, ID: last.ID}
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d jobs, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page walk order diverged at %d: got %v", i, got)
		}
	}

	// Range bounds are honored.
	items, more := st.SubmittedPage(base.Add(time.Hour), base.Add(3*time.Hour), Pos{}, 0)
	if len(items) != 4 || more {
		t.Fatalf("bounded page = %d items (more=%t), want 4", len(items), more)
	}
}

// TestSubmittedPageStableUnderInsert is the cursor guarantee offset
// pagination cannot give: records present for the whole walk are seen
// exactly once even when new records land between page fetches —
// including records inserted *before* the reader's current position.
func TestSubmittedPageStableUnderInsert(t *testing.T) {
	st := New()
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	end := base.AddDate(0, 0, 1)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("orig%02d", i)
		if err := st.Insert(pageJob(id, base.Add(time.Duration(i)*time.Minute), time.Time{})); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]int{}
	after := Pos{}
	page := 0
	for {
		items, more := st.SubmittedPage(base, end, after, 4)
		for _, j := range items {
			seen[j.ID]++
		}
		// Concurrent writer: one insert behind the cursor, one ahead,
		// between every pair of page reads.
		if err := st.Insert(pageJob(fmt.Sprintf("early%02d", page), base.Add(time.Second), time.Time{})); err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(pageJob(fmt.Sprintf("late%02d", page), base.Add(25*time.Minute), time.Time{})); err != nil {
			t.Fatal(err)
		}
		page++
		if !more {
			break
		}
		last := items[len(items)-1]
		after = Pos{Time: last.SubmitTime, ID: last.ID}
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("orig%02d", i)
		if seen[id] != 1 {
			t.Errorf("job %s seen %d times, want exactly once", id, seen[id])
		}
	}
	if page < 5 {
		t.Fatalf("walk finished in %d pages; the insert interleaving never ran", page)
	}
}
