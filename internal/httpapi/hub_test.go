package httpapi

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func hubPublishN(h *predHub, lo, hi int) {
	for i := lo; i < hi; i++ {
		h.publish([]byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
}

// TestHubHugeLastEventID: Last-Event-ID is attacker-controlled, so
// resume positions far beyond anything the hub issued (including
// values whose int conversion would go negative) must subscribe
// cleanly — no panic, no backlog, and an explicit gap so the client
// re-syncs. Regression: int(afterID+1-first) used to go negative for
// afterID >= 2^63 and make([]hubEvent, len-idx) panicked.
func TestHubHugeLastEventID(t *testing.T) {
	h := newPredHub(16)
	hubPublishN(h, 0, 8)
	for _, after := range []uint64{9, 1 << 63, math.MaxUint64} {
		s := h.subscribe(after, 4)
		if !s.gap {
			t.Fatalf("afterID=%d: gap=false, want true (cannot resume past seq=%d)", after, h.seq)
		}
		if got := len(s.ch); got != 0 {
			t.Fatalf("afterID=%d: %d backlog events, want 0", after, got)
		}
		h.unsubscribe(s)
	}
}

// TestHubFutureIDOnEmptyRing: a pre-restart resume ID against a fresh
// hub (seq=0) is a gap, not a silent live tail — the client must learn
// its position is from another epoch.
func TestHubFutureIDOnEmptyRing(t *testing.T) {
	h := newPredHub(16)
	s := h.subscribe(42, 4)
	if !s.gap {
		t.Fatal("afterID=42 on empty hub: gap=false, want true")
	}
	h.unsubscribe(s)
}

// TestHubExactTailResume: afterID == seq is a valid live tail (nothing
// missed), not a gap.
func TestHubExactTailResume(t *testing.T) {
	h := newPredHub(16)
	hubPublishN(h, 0, 5)
	s := h.subscribe(5, 4)
	if s.gap {
		t.Fatal("afterID==seq: gap=true, want false")
	}
	if got := len(s.ch); got != 0 {
		t.Fatalf("afterID==seq: %d backlog events, want 0", got)
	}
	h.unsubscribe(s)
}

// TestHubRingWrap: once the circular buffer has wrapped, resume still
// replays exactly the retained suffix in order, and positions that
// rotated out produce a gap plus the full retained ring.
func TestHubRingWrap(t *testing.T) {
	h := newPredHub(4)
	hubPublishN(h, 0, 10) // seq 1..10; ring retains 7,8,9,10

	// Exact resume within the ring.
	s := h.subscribe(8, 4)
	if s.gap {
		t.Fatal("resume at 8 (retained): gap=true, want false")
	}
	for _, want := range []uint64{9, 10} {
		ev := <-s.ch
		if ev.id != want {
			t.Fatalf("replayed id %d, want %d", ev.id, want)
		}
	}
	if got := len(s.ch); got != 0 {
		t.Fatalf("%d extra backlog events after exact resume", got)
	}
	h.unsubscribe(s)

	// Rotated-out resume: gap plus everything still retained.
	s = h.subscribe(2, 4)
	if !s.gap {
		t.Fatal("resume at 2 (rotated out): gap=false, want true")
	}
	for _, want := range []uint64{7, 8, 9, 10} {
		ev := <-s.ch
		if ev.id != want {
			t.Fatalf("post-gap replayed id %d, want %d", ev.id, want)
		}
	}
	h.unsubscribe(s)
}

// TestHubPublishBatchIsOneCriticalSection: a batch is published under a
// single acquisition of the hub mutex, so its event IDs are consecutive
// and in input order however many other publishers race it, and a
// subscriber resuming from an ID in the middle of a batch replays
// exactly the rest.
func TestHubPublishBatchIsOneCriticalSection(t *testing.T) {
	const publishers, batches, size = 4, 50, 20
	h := newPredHub(publishers * batches * size)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([][]byte, size)
				for i := range batch {
					batch[i] = []byte(fmt.Sprintf("%d/%d/%d", p, b, i))
				}
				h.publish(batch...)
			}
		}(p)
	}
	wg.Wait()
	if got := h.published.Load(); got != publishers*batches*size {
		t.Fatalf("published %d events, want %d", got, publishers*batches*size)
	}

	const mid = size/2 + 3*size // an ID inside the fourth batch
	s := h.subscribe(mid, 1)
	defer h.unsubscribe(s)
	if s.gap {
		t.Fatal("resume inside a retained batch reported a gap")
	}
	if got, want := len(s.ch), publishers*batches*size-mid; got != want {
		t.Fatalf("replayed %d events after id %d, want %d", got, mid, want)
	}
	// Walk the whole ring: IDs are dense, and every run of `size` events
	// starting at a batch boundary is one publisher's batch in order.
	h.mu.Lock()
	events := append([]hubEvent(nil), h.ring[:h.n]...) // never wrapped: head is 0
	h.mu.Unlock()
	for k, ev := range events {
		if ev.id != uint64(k+1) {
			t.Fatalf("event %d has id %d", k, ev.id)
		}
		var p, b, i int
		if _, err := fmt.Sscanf(string(ev.data), "%d/%d/%d", &p, &b, &i); err != nil {
			t.Fatal(err)
		}
		if i != k%size {
			t.Fatalf("event id %d is element %d of batch %d/%d: batches interleaved", ev.id, i, p, b)
		}
		if i > 0 && string(events[k-1].data) != fmt.Sprintf("%d/%d/%d", p, b, i-1) {
			t.Fatalf("event id %d (%s) follows %s", ev.id, ev.data, events[k-1].data)
		}
	}
	if ev := <-s.ch; ev.id != mid+1 {
		t.Fatalf("first replayed id %d, want %d", ev.id, mid+1)
	}
}
