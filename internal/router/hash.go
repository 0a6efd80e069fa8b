package router

// rendezvousScore ranks backend candidates for a client key by
// highest-random-weight (rendezvous) hashing: every (backend, key) pair
// gets a stable pseudo-random weight, and a key's preference order is
// the backends sorted by descending weight. The properties that matter
// here: a key sticks to the same follower while the fleet is stable
// (cache and cursor locality), and when one backend drops out only that
// backend's keys move — no global reshuffle, unlike modulo hashing.
// The weight is FNV-1a 64 of backendID, a zero byte and key, finalized;
// written out so that ranking a read's candidates allocates nothing.
func rendezvousScore(backendID, key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(backendID); i++ {
		h = (h ^ uint64(backendID[i])) * prime
	}
	h *= prime // the separator: a zero byte leaves the xor a no-op
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer. Raw FNV-1a has weak avalanche:
// for near-identical keys (tenant-1, tenant-2, ...) the *relative
// order* of two backends' scores stays correlated, which skewed the
// follower split as far as 90/10 on sequential tenant IDs. Finalizing
// restores an unbiased comparison.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
