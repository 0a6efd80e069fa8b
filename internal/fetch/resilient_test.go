package fetch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/resilience"
	"mcbound/internal/store"
)

// scriptedBackend fails JobByID with the scripted errors in order, then
// succeeds forever; range queries always succeed.
type scriptedBackend struct {
	errs  []error
	calls int
}

func (s *scriptedBackend) next() error {
	s.calls++
	if len(s.errs) == 0 {
		return nil
	}
	err := s.errs[0]
	s.errs = s.errs[1:]
	return err
}

func (s *scriptedBackend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return &job.Job{ID: id}, nil
}

func (s *scriptedBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return nil, nil
}

func (s *scriptedBackend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return nil, nil
}

func fastPolicy(attempts int) ResilienceConfig {
	return ResilienceConfig{
		Retry:   resilience.Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond},
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
		Seed:    1,
	}
}

func TestResilientBackendAbsorbsTransientFailures(t *testing.T) {
	inner := &scriptedBackend{errs: []error{errors.New("flaky"), errors.New("flaky")}}
	rb := NewResilientBackend(inner, fastPolicy(4))
	j, err := rb.JobByID(context.Background(), "a")
	if err != nil {
		t.Fatalf("JobByID = %v, want success after retries", err)
	}
	if j.ID != "a" || inner.calls != 3 {
		t.Errorf("job = %+v after %d calls, want id a after 3", j, inner.calls)
	}
	if rb.Breaker().State() != resilience.Closed {
		t.Errorf("breaker = %v after a retried success, want closed", rb.Breaker().State())
	}
}

func TestResilientBackendNotFoundIsPermanentAndBenign(t *testing.T) {
	inner := &scriptedBackend{errs: []error{store.ErrNotFound, store.ErrNotFound, store.ErrNotFound}}
	rb := NewResilientBackend(inner, fastPolicy(4))
	for i := 0; i < 3; i++ {
		if _, err := rb.JobByID(context.Background(), "nope"); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound surfaced", err)
		}
	}
	if inner.calls != 3 {
		t.Errorf("inner calls = %d, want 3 (misses must not be retried)", inner.calls)
	}
	if rb.Breaker().State() != resilience.Closed {
		t.Errorf("misses tripped the breaker (threshold 3): %v", rb.Breaker().State())
	}
}

func TestResilientBackendBreakerTripsAndRejects(t *testing.T) {
	down := errors.New("storage down")
	inner := &scriptedBackend{errs: []error{
		down, down, down, down, down, down, // exhausts 2-attempt budget 3×
	}}
	rb := NewResilientBackend(inner, ResilienceConfig{
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
	})
	for i := 0; i < 3; i++ {
		if _, err := rb.ExecutedBetween(context.Background(), time.Time{}, time.Time{}); !errors.Is(err, down) {
			t.Fatalf("query %d = %v, want wrapped storage error", i, err)
		}
	}
	if rb.Breaker().State() != resilience.Open {
		t.Fatalf("breaker = %v after 3 failed queries, want open", rb.Breaker().State())
	}
	calls := inner.calls
	_, err := rb.SubmittedBetween(context.Background(), time.Time{}, time.Time{})
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("open breaker did not reject: %v", err)
	}
	if d, ok := resilience.RetryAfter(err); !ok || d <= 0 {
		t.Errorf("rejection carries no Retry-After hint: %v", err)
	}
	if inner.calls != calls {
		t.Errorf("open breaker still reached the backend (%d → %d calls)", calls, inner.calls)
	}
}

// flakyBackend fails every third call with a retryable error and every
// 17th with a permanent one, from any number of goroutines.
type flakyBackend struct{ calls atomic.Int64 }

var errFlaky = errors.New("flaky storage")

func (f *flakyBackend) next() error {
	switch n := f.calls.Add(1); {
	case n%17 == 0:
		return resilience.Permanent(errFlaky)
	case n%3 == 0:
		return errFlaky
	}
	return nil
}

func (f *flakyBackend) JobByID(ctx context.Context, id string) (*job.Job, error) {
	return &job.Job{ID: id}, f.next()
}

func (f *flakyBackend) ExecutedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	return nil, f.next()
}

func (f *flakyBackend) SubmittedBetween(ctx context.Context, start, end time.Time) ([]*job.Job, error) {
	return nil, f.next()
}

// Many goroutines share one decorator over a failing backend (run it
// under -race): each logical call resolves to exactly one of success,
// the backend's error, or a breaker rejection.
func TestResilientBackendConcurrent(t *testing.T) {
	rb := NewResilientBackend(&flakyBackend{}, ResilienceConfig{
		Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, Jitter: 0.2},
		Breaker: resilience.BreakerConfig{FailureThreshold: 8, Cooldown: time.Millisecond},
		Seed:    7,
	})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				switch i % 3 {
				case 0:
					_, err = rb.JobByID(context.Background(), "j1")
				case 1:
					_, err = rb.ExecutedBetween(context.Background(), time.Time{}, time.Time{})
				default:
					_, err = rb.SubmittedBetween(context.Background(), time.Time{}, time.Time{})
				}
				kind := "other"
				switch {
				case err == nil:
					kind = "ok"
				case errors.Is(err, resilience.ErrOpen):
					kind = "rejected"
				case errors.Is(err, errFlaky):
					kind = "failed"
				}
				mu.Lock()
				outcomes[kind]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if outcomes["other"] != 0 || outcomes["ok"] == 0 {
		t.Errorf("outcomes = %v: want no unclassified error and some successes", outcomes)
	}
}
