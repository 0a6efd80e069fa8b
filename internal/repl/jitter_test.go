package repl

import (
	"testing"
	"time"
)

func newJitterFollower(t *testing.T, jitter float64, seed uint64) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{
		Client:     NewClient(ClientConfig{BaseURL: "http://unused"}),
		Apply:      func([]byte) error { return nil },
		Poll:       100 * time.Millisecond,
		PollJitter: jitter,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The follower's fraction of the one jitter formula (the band, the mean
// and the per-seed determinism are clock.Jitter's tests): PollJitter 0
// selects ±10 %, negative disables it.
func TestPollJitterSpreadsWithinBand(t *testing.T) {
	f := newJitterFollower(t, 0, 42)
	var lo, hi time.Duration = time.Hour, 0
	for i := 0; i < 200; i++ {
		d := f.nextPoll()
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 90*time.Millisecond || hi > 110*time.Millisecond || hi-lo < 15*time.Millisecond {
		t.Fatalf("default poll jitter drew [%v, %v], want most of 100ms ± 10%%", lo, hi)
	}
}

func TestPollJitterDisabled(t *testing.T) {
	f := newJitterFollower(t, -1, 1)
	for i := 0; i < 10; i++ {
		if d := f.nextPoll(); d != 100*time.Millisecond {
			t.Fatalf("jitter disabled but poll = %v", d)
		}
	}
}
