package httpapi

import (
	"sync"
	"sync/atomic"
)

// predHub fans classification results out to SSE subscribers. Every
// published prediction gets a monotonically increasing event ID; a
// bounded ring of recent events backs Last-Event-ID resume, so a
// client that reconnects within the ring's horizon replays exactly
// the events it missed and a client that fell further behind gets an
// explicit gap marker instead of a silent hole.
//
// Slow consumers are disconnected, not buffered without bound: when a
// subscriber's channel is full the hub closes it, the handler ends the
// response, and the client reconnects with its Last-Event-ID — the
// ring then decides between exact resume and gap. This keeps one
// stalled TCP window from growing server memory.
type predHub struct {
	mu   sync.Mutex
	seq  uint64
	ring []hubEvent // circular: oldest at head, n live entries
	head int
	n    int
	subs map[*hubSub]struct{}

	published atomic.Int64
	dropped   atomic.Int64
}

// hubEvent is one SSE event: its ID and the pre-marshaled JSON data.
type hubEvent struct {
	id   uint64
	data []byte
}

// hubSub is one subscriber. The channel is closed by the hub on
// overflow (gap semantics) or never (the handler unsubscribes on
// disconnect).
type hubSub struct {
	ch     chan hubEvent
	gap    bool // the requested resume point predates the ring or is unknown
	closed bool
}

func newPredHub(ringCap int) *predHub {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &predHub{ring: make([]hubEvent, ringCap), subs: make(map[*hubSub]struct{})}
}

// publish assigns the next event IDs to batch, in order, and delivers
// them to every subscriber under one acquisition of the hub mutex, so a
// batch's IDs are consecutive whatever else publishes concurrently. The
// data slices must not be mutated afterwards. Eviction is O(1): a full
// ring overwrites its oldest slot and advances head, so the classify
// hot path never shifts the buffer under the hub mutex.
func (h *predHub) publish(batch ...[]byte) {
	h.mu.Lock()
	for _, data := range batch {
		h.seq++
		ev := hubEvent{id: h.seq, data: data}
		if h.n == len(h.ring) {
			h.ring[h.head] = ev
			h.head = (h.head + 1) % len(h.ring)
		} else {
			h.ring[(h.head+h.n)%len(h.ring)] = ev
			h.n++
		}
		for s := range h.subs {
			if s.closed {
				continue
			}
			select {
			case s.ch <- ev:
			default:
				// Consumer stalled: cut it loose rather than buffer.
				s.closed = true
				close(s.ch)
				delete(h.subs, s)
				h.dropped.Add(1)
			}
		}
	}
	h.mu.Unlock()
	h.published.Add(int64(len(batch)))
}

// subscribe registers a consumer resuming after event ID afterID
// (0 = live tail only, no backlog). The backlog the ring still holds
// is preloaded into the channel; gap reports that the resume position
// cannot be honored exactly — either events between afterID and the
// ring's oldest entry rotated out, or afterID is ahead of anything
// this hub ever issued (e.g. a pre-restart ID, since IDs restart
// at 1) and the client must re-sync via a cursor range read.
func (h *predHub) subscribe(afterID uint64, buffer int) *hubSub {
	if buffer < 1 {
		buffer = 64
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	backlog := h.backlogLocked(afterID)
	s := &hubSub{ch: make(chan hubEvent, buffer+len(backlog))}
	switch {
	case afterID > h.seq:
		s.gap = true // future/stale ID from another epoch: cannot resume
	case afterID > 0 && h.n > 0 && h.ring[h.head].id > afterID+1:
		s.gap = true
	case afterID > 0 && h.n == 0 && h.seq > afterID:
		s.gap = true // everything since afterID already rotated out
	}
	for _, ev := range backlog {
		s.ch <- ev
	}
	h.subs[s] = struct{}{}
	return s
}

// backlogLocked returns the ring's events with id > afterID, oldest
// first. afterID is attacker-controlled (Last-Event-ID header), so all
// position arithmetic stays in uint64 and is bounds-checked before any
// conversion to int: values beyond h.seq mean "nothing to replay", not
// an index.
func (h *predHub) backlogLocked(afterID uint64) []hubEvent {
	if afterID == 0 || h.n == 0 || afterID >= h.seq {
		return nil
	}
	first := h.ring[h.head].id // oldest retained event
	if afterID+1 < first {
		afterID = first - 1 // everything older rotated out; replay the whole ring
	}
	// afterID ∈ [first-1, seq-1] here, so off ∈ [0, n-1]: no underflow,
	// no overflow, and the int conversion is safe.
	off := int(afterID + 1 - first)
	out := make([]hubEvent, h.n-off)
	for i := range out {
		out[i] = h.ring[(h.head+off+i)%len(h.ring)]
	}
	return out
}

// unsubscribe removes a consumer; safe to call after an overflow
// disconnect.
func (h *predHub) unsubscribe(s *hubSub) {
	h.mu.Lock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		s.closed = true
		close(s.ch)
	}
	h.mu.Unlock()
}

// subscribers returns the live consumer count (gauge).
func (h *predHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
