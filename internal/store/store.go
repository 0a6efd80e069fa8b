// Package store implements the jobs data storage MCBound requires from
// the host system: an indexed repository of job records answering the two
// query shapes the Data Fetcher issues — lookup by job id and scan by
// execution-time range. It stands in for Fugaku's relational database and
// supports concurrent readers with streaming inserts, plus JSONL
// persistence for offline exchange.
package store

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/wal"
)

// ErrNotFound is the sentinel wrapped by lookups for absent job IDs;
// callers branch with errors.Is (the HTTP layer maps it to 404).
var ErrNotFound = errors.New("job not found")

// Store is an in-memory, mutex-guarded job repository. Jobs are indexed
// by ID and kept ordered by EndTime for range scans (the Training
// Workflow queries by completion interval, matching the paper's
// fetch(start_time, end_time)).
//
// Insert copies the record, so callers may reuse or mutate their Job
// after the call. Reads return the store's own pointers: mutating a
// fetched job (as the labeling path does with TrueLabel) is visible to
// later readers of the same record, but a later Insert of the same ID
// replaces the stored pointer rather than updating it in place.
type Store struct {
	mu   sync.RWMutex
	byID map[string]*job.Job
	// byEnd is an immutable snapshot of the completed jobs sorted by
	// (EndTime, ID), rebuilt on demand. Writers that change the
	// completion set invalidate it by setting it nil; readers either
	// grab the current snapshot (never mutated after publication) or
	// rebuild under the write lock. This keeps range scans off the
	// write path without the sort-under-reader race of an in-place
	// index. bySubmit is the same idea over every job, sorted by
	// (SubmitTime, ID) — the keyset the cursor page scans walk.
	byEnd    []*job.Job
	bySubmit []*job.Job
}

// New returns an empty Store.
func New() *Store {
	return &Store{byID: make(map[string]*job.Job)}
}

// Insert adds copies of the given jobs to the store. Inserting a job
// whose ID already exists replaces the previous record (job records are
// updated when execution completes and counters arrive).
func (s *Store) Insert(jobs ...*job.Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		if j.ID == "" {
			return fmt.Errorf("store: job with empty id")
		}
		cp := *j
		old, existed := s.byID[cp.ID]
		s.byID[cp.ID] = &cp
		// The snapshot stays valid unless the completion set changed:
		// a completed record arrived, or a completed one was replaced.
		if !cp.EndTime.IsZero() || (existed && !old.EndTime.IsZero()) {
			s.byEnd = nil
		}
		// Every insert perturbs the submission keyset.
		s.bySubmit = nil
	}
	return nil
}

// Len returns the number of stored jobs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Get returns the job with the given ID, or an error if absent.
func (s *Store) Get(id string) (*job.Job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("store: job %q: %w", id, ErrNotFound)
	}
	return j, nil
}

// executedIndex returns the current completion snapshot, rebuilding it
// under the write lock when an insert has invalidated it. The returned
// slice is never mutated afterwards, so callers may search it unlocked.
func (s *Store) executedIndex() []*job.Job {
	s.mu.RLock()
	idx := s.byEnd
	s.mu.RUnlock()
	if idx != nil {
		return idx
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byEnd != nil { // another writer rebuilt it first
		return s.byEnd
	}
	keys := make([]timeKey, 0, len(s.byID))
	for _, j := range s.byID {
		if !j.EndTime.IsZero() {
			keys = append(keys, keyOf(j.EndTime, j))
		}
	}
	s.byEnd = sortByKey(keys)
	return s.byEnd
}

// submittedIndex returns the current submission snapshot (every job
// sorted by (SubmitTime, ID)), rebuilding it under the write lock when
// an insert has invalidated it. The returned slice is never mutated
// afterwards, so callers may search it unlocked.
func (s *Store) submittedIndex() []*job.Job {
	s.mu.RLock()
	idx := s.bySubmit
	s.mu.RUnlock()
	if idx != nil {
		return idx
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bySubmit != nil { // another writer rebuilt it first
		return s.bySubmit
	}
	keys := make([]timeKey, 0, len(s.byID))
	for _, j := range s.byID {
		keys = append(keys, keyOf(j.SubmitTime, j))
	}
	s.bySubmit = sortByKey(keys)
	return s.bySubmit
}

// timeKey is a record's place in a (time, ID) index with the instant
// copied out beside it: the sort compares two integers in the key
// itself, and follows the pointer only to break a tie on ID.
type timeKey struct {
	sec  int64
	nsec int32
	j    *job.Job
}

func keyOf(t time.Time, j *job.Job) timeKey {
	return timeKey{t.Unix(), int32(t.Nanosecond()), j}
}

// sortByKey orders the keys by (time, ID), the order Pos.less walks, and
// returns their records in it.
func sortByKey(keys []timeKey) []*job.Job {
	slices.SortFunc(keys, func(a, b timeKey) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
			return c
		}
		return strings.Compare(a.j.ID, b.j.ID)
	})
	idx := make([]*job.Job, len(keys))
	for i, k := range keys {
		idx[i] = k.j
	}
	return idx
}

// Pos is a keyset position in SubmittedPage's (SubmitTime, id)-ordered
// scan: the sort key of the last record a reader has consumed. The zero
// value means "before everything".
type Pos struct {
	Time time.Time
	ID   string
}

// IsZero reports whether the position is the before-everything marker.
func (p Pos) IsZero() bool { return p.Time.IsZero() && p.ID == "" }

// less orders positions the way the snapshot indexes do.
func (p Pos) less(t time.Time, id string) bool {
	if p.Time.Equal(t) {
		return p.ID < id
	}
	return p.Time.Before(t)
}

// SubmittedPage returns up to limit jobs (limit <= 0 means no cap) with
// SubmitTime in [start, end) whose (SubmitTime, ID) key lies strictly
// after the given position, in key order. A zero Pos starts at the
// beginning of the range. more reports whether the range holds records
// beyond the returned page. Because the position names a concrete
// (time, id) key rather than a count, concurrent inserts before the
// position can neither duplicate nor skip records for a reader walking
// pages — the offset-pagination failure mode. This is the resumable
// scan behind the v1 cursor API.
func (s *Store) SubmittedPage(start, end time.Time, after Pos, limit int) (items []*job.Job, more bool) {
	idx := s.submittedIndex()
	lo := sort.Search(len(idx), func(i int) bool { return !idx[i].SubmitTime.Before(start) })
	if !after.IsZero() {
		// First record strictly after the cursor position.
		cut := sort.Search(len(idx), func(i int) bool { return after.less(idx[i].SubmitTime, idx[i].ID) })
		if cut > lo {
			lo = cut
		}
	}
	hi := sort.Search(len(idx), func(i int) bool { return !idx[i].SubmitTime.Before(end) })
	if lo >= hi {
		return []*job.Job{}, false
	}
	stop := hi
	if limit > 0 && lo+limit < hi {
		stop = lo + limit
		more = true
	}
	items = make([]*job.Job, stop-lo)
	copy(items, idx[lo:stop])
	return items, more
}

// ExecutedBetween returns all jobs whose EndTime lies in [start, end),
// ordered by completion time. This is the query the Training Workflow
// issues for its α-day window.
func (s *Store) ExecutedBetween(start, end time.Time) []*job.Job {
	idx := s.executedIndex()
	lo := sort.Search(len(idx), func(i int) bool { return !idx[i].EndTime.Before(start) })
	hi := sort.Search(len(idx), func(i int) bool { return !idx[i].EndTime.Before(end) })
	out := make([]*job.Job, hi-lo)
	copy(out, idx[lo:hi])
	return out
}

// TrainInstant is the reference instant of every Training Workflow
// trigger that names none — a node's boot train, its retrain cron and
// POST /v1/train without "now": the newest completion in the store, or
// now while the store holds no completed job.
func (s *Store) TrainInstant(now time.Time) time.Time {
	idx := s.executedIndex()
	if len(idx) == 0 {
		return now
	}
	return idx[len(idx)-1].EndTime
}

// SubmittedBetween returns all jobs whose SubmitTime lies in [start, end),
// ordered by submission time. The Inference Workflow uses it to collect
// the jobs accumulated since its last trigger.
func (s *Store) SubmittedBetween(start, end time.Time) []*job.Job {
	idx := s.submittedIndex()
	lo := sort.Search(len(idx), func(i int) bool { return !idx[i].SubmitTime.Before(start) })
	hi := sort.Search(len(idx), func(i int) bool { return !idx[i].SubmitTime.Before(end) })
	out := make([]*job.Job, hi-lo)
	copy(out, idx[lo:hi])
	return out
}

// All returns every job ordered by submission time.
func (s *Store) All() []*job.Job {
	idx := s.submittedIndex()
	out := make([]*job.Job, len(idx))
	copy(out, idx)
	return out
}

// WriteJSONL streams every job to w as one JSON object per line, in
// submission order: the bytes json.Encoder.Encode writes.
func (s *Store) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var line []byte
	for _, j := range s.All() {
		var err error
		if line, err = job.AppendJSON(line[:0], j); err != nil {
			return fmt.Errorf("store: encode job %s: %w", j.ID, err)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL loads jobs from a JSONL stream produced by WriteJSONL.
func ReadJSONL(r io.Reader) (*Store, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		var j job.Job
		if err := job.Unmarshal(sc.Bytes(), &j); err != nil {
			return nil, fmt.Errorf("store: line %d: %w", line, err)
		}
		if err := s.Insert(&j); err != nil {
			return nil, fmt.Errorf("store: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	return s, nil
}

// SaveFile persists the store to path as JSONL. The write is
// crash-safe: the data lands in a temp file that is fsynced, renamed
// over path, and sealed with a directory fsync, so a crash leaves
// either the old file or the new one — never a torn mix.
func (s *Store) SaveFile(path string) error {
	return wal.WriteStreamAtomic(wal.OS, path, s.WriteJSONL)
}

// LoadFile reads a JSONL store from path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return ReadJSONL(f)
}
