package main

import (
	"testing"
	"time"
)

// The cron's fraction of the one jitter formula (clock.Jitter's tests
// cover the band): -retrain-every ± -retrain-jitter, 0 = fixed period.
func TestRetrainIntervalsFollowTheJitterFlag(t *testing.T) {
	next := retrainIntervals(options{retrainEvery: time.Hour, retrainJitter: 0.25, seed: 7})
	var lo, hi time.Duration = 24 * time.Hour, 0
	for i := 0; i < 200; i++ {
		d := next()
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 45*time.Minute || hi > 75*time.Minute || hi-lo < 25*time.Minute {
		t.Fatalf("-retrain-jitter 0.25 drew [%v, %v], want most of 1h ± 25%%", lo, hi)
	}
	fixed := retrainIntervals(options{retrainEvery: time.Hour, seed: 7})
	for i := 0; i < 10; i++ {
		if d := fixed(); d != time.Hour {
			t.Fatalf("-retrain-jitter 0 drew %v, want exactly 1h", d)
		}
	}
}
