package admission

import (
	"container/list"
	"sync"
	"time"

	"mcbound/internal/clock"
)

// DefaultClientCap bounds the bucket LRU of a Controller's rate limiter.
const DefaultClientCap = 1024

// RateLimiter enforces a per-client token bucket, keyed by the client
// identity the HTTP layer extracts (X-Client-Id header or remote
// host). Buckets live in an LRU bounded at cap entries, so an open
// endpoint scanned by many one-shot clients cannot grow memory without
// bound; evicting a bucket forgets at most one burst allowance.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	cap   int
	clock clock.Clock

	mu  sync.Mutex
	lru *list.List // *bucket, front = most recently used
	m   map[string]*list.Element
}

type bucket struct {
	key    string
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter granting rate tokens/second with the
// given burst capacity over an LRU of at most clientCap buckets.
func NewRateLimiter(rate, burst float64, clientCap int, clk clock.Clock) *RateLimiter {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	if clientCap <= 0 {
		clientCap = DefaultClientCap
	}
	if clk == nil {
		clk = clock.Wall{}
	}
	return &RateLimiter{
		rate:  rate,
		burst: burst,
		cap:   clientCap,
		clock: clk,
		lru:   list.New(),
		m:     make(map[string]*list.Element),
	}
}

// Allow spends one token from key's bucket. When the bucket is empty
// it reports false and the time until the next token refills.
func (l *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var b *bucket
	if el, hit := l.m[key]; hit {
		b = el.Value.(*bucket)
		l.lru.MoveToFront(el)
	} else {
		if l.lru.Len() >= l.cap {
			oldest := l.lru.Back()
			l.lru.Remove(oldest)
			delete(l.m, oldest.Value.(*bucket).key)
		}
		b = &bucket{key: key, tokens: l.burst, last: now}
		l.m[key] = l.lru.PushFront(b)
	}
	// Refill for the elapsed interval, capped at the burst.
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if l.rate <= 0 {
		return false, time.Hour
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// Clients returns the number of tracked buckets.
func (l *RateLimiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lru.Len()
}
