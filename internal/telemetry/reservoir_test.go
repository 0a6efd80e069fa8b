package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"mcbound/internal/stats"
)

// refQuantile is Quantile as it was before the reservoir kept a sorted
// mirror — copy the sample, sort it, index by nearest rank — and the
// reference the mirror is tested against.
func refQuantile(r *Reservoir, q float64) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.vals) == 0 {
		return 0, false
	}
	sorted := make([]float64, len(r.vals))
	copy(sorted, r.vals)
	sort.Float64s(sorted)
	q = math.Max(0, math.Min(1, q))
	i := int(q * float64(len(sorted)-1))
	return sorted[i], true
}

// checkMirror fails unless the sorted mirror is sorted, holds exactly
// the sample's values (bit for bit, so a −0 is not traded for a +0) and
// answers every quantile as the copy-and-sort reference does.
func checkMirror(t *testing.T, r *Reservoir, step int) {
	t.Helper()
	if !sort.Float64sAreSorted(r.sorted) {
		t.Fatalf("step %d: mirror is not sorted: %v", step, r.sorted)
	}
	bits := make(map[uint64]int, len(r.vals))
	for _, v := range r.vals {
		bits[math.Float64bits(v)]++
	}
	for _, v := range r.sorted {
		bits[math.Float64bits(v)]--
	}
	for b, n := range bits {
		if n != 0 {
			t.Fatalf("step %d: value %g (bits %#x) is %+d times more often in the sample than in the mirror",
				step, math.Float64frombits(b), b, n)
		}
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		got, gok := r.Quantile(q)
		want, wok := refQuantile(r, q)
		if got != want || gok != wok {
			t.Fatalf("step %d: Quantile(%g) = %g, %v; sort reference %g, %v", step, q, got, gok, want, wok)
		}
	}
}

// TestReservoirQuantileMatchesSortReference drives 50 000 seeded
// samples — heavy duplication, both zeros, denormals, negatives —
// through a full reservoir and checks the mirror after every one.
func TestReservoirQuantileMatchesSortReference(t *testing.T) {
	const capacity, steps = 96, 50000
	r := NewReservoir(capacity, 11)
	rng := stats.NewRNG(12)
	negZero := math.Copysign(0, -1)
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return negZero
		case 2:
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(4))
		case 3:
			return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(3))
		case 4:
			return float64(rng.Intn(6)) / 4 // few distinct values: long runs of duplicates
		case 5:
			return -rng.Float64()
		default:
			return rng.Float64() * 1e-3
		}
	}
	for step := 0; step < steps; step++ {
		r.Observe(draw())
		checkMirror(t, r, step)
	}
	if r.Count() != steps || len(r.vals) != capacity {
		t.Fatalf("Count %d, retained %d; want %d, %d", r.Count(), len(r.vals), steps, capacity)
	}
}

// The sample is, slot for slot, what a plain algorithm R on the same
// random stream retains — below the capacity, at it, and far past it —
// with the mirror intact throughout.
func TestReservoirMatchesAlgorithmR(t *testing.T) {
	const capacity = 32
	r := NewReservoir(capacity, 9)
	refRNG := stats.NewRNG(9)
	in := stats.NewRNG(10)
	var ref []float64
	for n := 1; n <= 3000; n++ {
		v := float64(in.Intn(50)) / 8
		r.Observe(v)
		if len(ref) < capacity {
			ref = append(ref, v)
		} else if j := refRNG.Intn(n); j < capacity {
			ref[j] = v
		}
		checkMirror(t, r, n)
		if !slices.Equal(r.vals, ref) {
			t.Fatalf("step %d: sample %v, reference on the same stream %v", n, r.vals, ref)
		}
	}
}

func TestReservoirQuantileDoesNotAllocate(t *testing.T) {
	r := NewReservoir(512, 5)
	for i := 0; i < 2000; i++ {
		r.Observe(float64(i%701) * 1e-4)
	}
	if n := testing.AllocsPerRun(100, func() { r.Quantile(0.95) }); n != 0 {
		t.Fatalf("Quantile allocates %v times a call, want 0", n)
	}
}

// The two reservoir benchmarks at the router's capacity: Quantile is
// what every routed read pays (once per candidate), Observe what a
// completed one pays. Observe restarts its reservoir every 8×cap
// samples so that the op stays the young reservoir's — an insert or a
// likely replacement, each with its memmove — and does not decay into
// the rejected draw of an old one.
func BenchmarkReservoirObserve(b *testing.B) {
	const capacity = 512
	rng := stats.NewRNG(2)
	vals := make([]float64, 8*capacity)
	for i := range vals {
		vals[i] = rng.Float64() * 1e-3
	}
	var r *Reservoir
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(vals) == 0 {
			r = NewReservoir(capacity, 1)
		}
		r.Observe(vals[i%len(vals)])
	}
}

func BenchmarkReservoirQuantile(b *testing.B) {
	r := NewReservoir(512, 1)
	rng := stats.NewRNG(2)
	for i := 0; i < 4096; i++ {
		r.Observe(rng.Float64() * 1e-3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Quantile(0.95)
	}
}

func TestReservoirQuantileExactWhileUnderCapacity(t *testing.T) {
	r := NewReservoir(128, 1)
	if _, ok := r.Quantile(0.5); ok {
		t.Fatal("empty reservoir reported a quantile")
	}
	for i := 1; i <= 100; i++ {
		r.Observe(float64(i))
	}
	if v, ok := r.Quantile(0.95); !ok || v < 94 || v > 97 {
		t.Fatalf("p95 of 1..100 = %g, want ~95", v)
	}
	if v, _ := r.Quantile(0); v != 1 {
		t.Fatalf("p0 = %g, want 1", v)
	}
	if v, _ := r.Quantile(1); v != 100 {
		t.Fatalf("p100 = %g, want 100", v)
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestReservoirSamplesBeyondCapacity(t *testing.T) {
	r := NewReservoir(64, 7)
	// A stream where the true median is 500: the retained uniform
	// sample's median must land in the right neighborhood.
	for i := 0; i < 10000; i++ {
		r.Observe(float64(i % 1000))
	}
	v, ok := r.Quantile(0.5)
	if !ok {
		t.Fatal("no quantile")
	}
	if v < 200 || v > 800 {
		t.Fatalf("sampled median = %g, want within [200, 800] of true 500", v)
	}
	if r.Count() != 10000 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestReservoirDeterministicUnderSeed(t *testing.T) {
	run := func() float64 {
		r := NewReservoir(32, 42)
		for i := 0; i < 5000; i++ {
			r.Observe(float64((i * 37) % 997))
		}
		v, _ := r.Quantile(0.9)
		return v
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different samples: %g vs %g", a, b)
	}
}

func TestReservoirIgnoresNonFinite(t *testing.T) {
	r := NewReservoir(8, 1)
	r.Observe(math.NaN())
	r.Observe(math.Inf(1))
	if _, ok := r.Quantile(0.5); ok {
		t.Fatal("non-finite samples were retained")
	}
}

func TestReservoirConcurrentObserve(t *testing.T) {
	r := NewReservoir(128, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Observe(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", r.Count())
	}
	if _, ok := r.Quantile(0.99); !ok {
		t.Fatal("no quantile after concurrent observes")
	}
}
