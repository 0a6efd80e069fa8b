package repl

import (
	"testing"
	"time"
)

// The follower's fraction of the one jitter formula (the band, the mean
// and the per-seed determinism are clock.Jitter's tests): ±10 %.
func TestPollJitterSpreadsWithinBand(t *testing.T) {
	f, err := NewFollower(FollowerConfig{
		Client: NewClient(ClientConfig{BaseURL: "http://unused"}),
		Apply:  func([]byte) error { return nil },
		Poll:   100 * time.Millisecond,
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi time.Duration = time.Hour, 0
	for i := 0; i < 200; i++ {
		d := f.nextPoll()
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 90*time.Millisecond || hi > 110*time.Millisecond || hi-lo < 15*time.Millisecond {
		t.Fatalf("default poll jitter drew [%v, %v], want most of 100ms ± 10%%", lo, hi)
	}
}
