//go:build race

package ivf

// raceEnabled: the test binary runs under the race detector, whose
// sync.Pool drops a quarter of all Puts by design.
const raceEnabled = true
