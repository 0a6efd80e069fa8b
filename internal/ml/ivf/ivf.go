// Package ivf implements an inverted-file (IVF) approximate-nearest-
// neighbor index over a row-major float32 matrix: a k-means coarse
// quantizer partitions the rows into clusters, a query scans only the
// nprobe clusters whose centroids are nearest, and the scans run over
// int8 scalar-quantized codes (¼ the memory traffic of float32) with
// exact float32 re-ranking of the top candidates. Search cost is
// O(nclusters·dim + scanned·dim/4 + rerank·dim) instead of the brute
// O(n·dim) — sub-linear for nclusters ≈ √n — while the re-ranking step
// keeps the returned top-k within a measured recall ≥ 0.95 of brute
// force at the default knobs (gated by knn's TestRecallGateAtScale).
//
// Exactness limit: with NProbe ≥ NClusters and Rerank ≥ Len the search
// degenerates to an exact scan and returns exactly the brute-force
// top-k; with a bounded rerank pool the int8 candidate ordering may
// drop a true neighbor, which is the (measured, gated) approximation.
package ivf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/stats"
)

// Build/search constants; DefaultRerank is what 0 in Config selects.
const (
	// DefaultKMeansIters bounds the Lloyd iterations of the coarse
	// quantizer: assignments stabilize long before exact convergence and
	// the recall gate, not centroid quality, is the accuracy contract.
	DefaultKMeansIters = 6
	// DefaultSampleSize caps the points k-means trains on; the full
	// matrix is still assigned to the fitted centroids afterwards.
	DefaultSampleSize = 16384
	// DefaultRerank is the quantized-candidate pool re-ranked with exact
	// float32 distances per query (raised to k when k is larger).
	DefaultRerank = 64
)

// Config holds the index hyper-parameters. The zero value selects
// defaults scaled to the matrix: NClusters = 2√n, Rerank =
// DefaultRerank, and NProbe calibrated at build time to the smallest
// width whose measured recall@k on a sample of the indexed rows
// reaches DefaultTargetRecall.
type Config struct {
	NClusters int    // coarse-quantizer cells; 0 = 2√n (clamped to [1, n])
	NProbe    int    // cells scanned per query; 0 = recall-calibrated at build
	Rerank    int    // exact re-rank pool per query; 0 = DefaultRerank
	Seed      uint64 // deterministic k-means seeding and calibration sampling
}

// Package-wide counters: cumulative across every live index so the
// mcbound_index_* collectors stay monotone over model hot-swaps.
var (
	totalProbes   atomic.Int64
	totalReranked atomic.Int64
	totalScanned  atomic.Int64
)

// TotalProbes returns the cluster scans issued by every index in this
// process (the mcbound_index_probes_total collector).
func TotalProbes() int64 { return totalProbes.Load() }

// TotalReranked returns the candidates re-ranked with exact float32
// distances by every index in this process (the
// mcbound_index_rerank_candidates_total collector).
func TotalReranked() int64 { return totalReranked.Load() }

// Stats is a point-in-time snapshot of the scan counter.
type Stats struct {
	Scanned int64 // int8 code rows visited by every index in this process
}

// Index is an immutable IVF index over a matrix: Build and Load set
// every field, and nothing writes one afterwards (the per-query scratch
// pool aside). Safe for concurrent Search.
//
// The codes are cell-major: position p holds the code of row member[p],
// so the scan of cell c reads the one contiguous block
// codes[starts[c]*dim : starts[c+1]*dim] front to back and looks at
// member only for the id of a candidate it keeps. (On disk they stay in
// row order; AppendBinary and Load translate.)
type Index struct {
	dim    int
	n      int
	scale  float32   // symmetric int8 quantization scale (maxabs/127)
	cents  []float32 // nclusters*dim centroid matrix
	starts []int32   // per cluster: offset into member, codes and norms (len nclusters+1)
	member []int32   // position → row id, grouped by cluster
	codes  []int8    // n*dim quantized rows, in member order
	norms  []int32   // per position: Σ code² (derived, never serialized)
	data   []float32 // n*dim original rows (shared with the caller)

	nprobe int
	rerank int

	bufs sync.Pool // *searchBuf per-query scratch
}

type searchBuf struct {
	qq    []int8        // quantized query
	qw    []int16       // qq widened, the form DotInt8Rows takes
	dots  []int32       // q·x of one cell's rows
	cdist []float64     // centroid distances
	probe []clusterDist // the nprobe nearest cells, nearest first
	cand  []quantCand   // bounded top-R quantized candidates
}

type clusterDist struct {
	d float64
	c int32
}

type quantCand struct {
	dist int64
	id   int32
}

// Build fits an IVF index over data (n rows of dim float32s, row-major).
// The data slice is retained for exact re-ranking and must not be
// mutated afterwards. Build fails only on malformed arguments.
func Build(data []float32, dim int, cfg Config) (*Index, error) {
	if dim <= 0 || dim > maxDim {
		// Load refuses a wider index, and the int32 sums of the scan
		// (norms, linalg.DotInt8Rows) are exact up to maxDim.
		return nil, fmt.Errorf("ivf: dim must be in [1, %d], got %d", maxDim, dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("ivf: data length %d is not a positive multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	k := cfg.NClusters
	if k <= 0 {
		// 2√n cells: halving the per-cell population (vs the classic √n)
		// cuts the rows a calibrated probe must scan by ~30% on the job
		// encodings while the extra centroid-scan cost stays negligible.
		k = 2 * int(math.Sqrt(float64(n)))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	sample := DefaultSampleSize
	if sample < 4*k {
		sample = 4 * k // enough points per cell to place centroids at all
	}
	if sample > n {
		sample = n
	}

	cents, assign := kmeans(data, dim, n, k, sample, cfg.Seed)

	// Inverted lists over ALL rows, dropping empty cells so every probed
	// cluster is guaranteed to contribute at least one candidate.
	counts := make([]int32, len(cents)/dim)
	for _, c := range assign {
		counts[c]++
	}
	remap := make([]int32, len(counts))
	kept := 0
	for c, ct := range counts {
		if ct == 0 {
			remap[c] = -1
			continue
		}
		copy(cents[kept*dim:(kept+1)*dim], cents[c*dim:(c+1)*dim])
		remap[c] = int32(kept)
		counts[kept] = ct
		kept++
	}
	cents = cents[:kept*dim]
	counts = counts[:kept]

	starts := make([]int32, kept+1)
	for c, ct := range counts {
		starts[c+1] = starts[c] + ct
	}
	member := make([]int32, n)
	next := append([]int32(nil), starts[:kept]...)
	for row, c := range assign {
		nc := remap[c]
		member[next[nc]] = int32(row)
		next[nc]++
	}

	// int8 scalar quantization: one symmetric scale over the matrix,
	// each row quantized straight into its cell-major slot.
	scale := linalg.MaxAbs32(data) / 127
	codes := make([]int8, len(data))
	for p, row := range member {
		linalg.QuantizeInt8(codes[p*dim:(p+1)*dim], rowOf(data, dim, int(row)), scale)
	}

	ix := &Index{
		dim: dim, n: n, scale: scale,
		cents: cents, starts: starts, member: member,
		codes: codes, norms: codeNorms(codes, dim), data: data,
		rerank: cfg.Rerank,
	}
	if ix.rerank <= 0 {
		ix.rerank = DefaultRerank
	}
	np := cfg.NProbe
	if np <= 0 {
		np = ix.calibrateNProbe(cfg.Seed)
	}
	if np > kept {
		np = kept
	}
	if np < 1 {
		np = 1
	}
	ix.nprobe = np
	return ix, nil
}

// Calibration knobs: how the default probe width is chosen at build
// time when Config.NProbe is zero.
const (
	// DefaultTargetRecall is the recall@k floor the calibrated probe
	// width must reach on the held-in calibration sample.
	DefaultTargetRecall = 0.95
	// calibrationQueries rows are sampled from the matrix as calibration
	// queries; calibrationK is the k of the measured recall@k (matching
	// the classifier's typical vote size).
	calibrationQueries = 128
	calibrationK       = 5
)

// calibrateNProbe picks the smallest probe width whose measured
// recall@k against an exact scan reaches DefaultTargetRecall, on a
// deterministic sample of the indexed rows. No fixed fraction of the cells works
// across scales (small indexes need a wide probe, large ones amortize
// it away), so the width is measured, not guessed. Cost: one ExactTopK
// over the calibrationQueries rows (a sparse filter, then the few
// survivors exactly) and one nearest-first walk a query, which scans
// each cell at most once however many widths the ladder asks about
// (see calibration); both run in parallel across the queries.
func (ix *Index) calibrateNProbe(seed uint64) int {
	kept := ix.Clusters()
	if kept <= 2 {
		return kept
	}
	// Aim halfway between the target and perfect recall: the width is
	// fitted on a finite sample, and a width that measures exactly the
	// target in-sample dips below it on unseen queries.
	target := DefaultTargetRecall + (1-DefaultTargetRecall)/2
	nq := calibrationQueries
	if nq > ix.n {
		nq = ix.n
	}

	// Deterministic query sample without replacement.
	rng := stats.NewRNG(seed ^ 0xc2b2ae3d27d4eb4f)
	rows := make([]int32, ix.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for i := 0; i < nq; i++ {
		j := i + rng.Intn(ix.n-i)
		rows[i], rows[j] = rows[j], rows[i]
	}
	cal := ix.newCalibration(rows[:nq], calibrationK)

	// Geometric ladder up to the first passing width, then binary
	// refinement between the last failing and first passing rungs.
	lo, hi := 0, kept
	for np := 2; np < kept; np = np*3/2 + 1 {
		if cal.recallAt(np) >= target {
			hi = np
			break
		}
		lo = np
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if cal.recallAt(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// calibration measures recall@k at any probe width for a fixed set of
// query rows. A search at width np scans the np nearest cells in one
// order (its nearest-first selection is a prefix of the full ordering,
// ties to the lower cell, wherever no centroid distance is NaN), into one bounded pool whose contents after j
// cells do not depend on np; it stops after cell j < np only when its
// scan budget is spent with k candidates in the pool. So one walk a
// query, cell by cell in that order, passes through the pool every
// width ends with: at each cell boundary it resolves the widths whose
// scan would stop there — width j, and every wider one whose budget
// the rows scanned so far cover, once the pool holds k — by re-ranking
// the pool exactly as Search does. The walk goes lazily only as far as
// the widest width asked for, and a pool row's exact distance is
// measured once per query. recallAt(np) is then a sum of per-query
// hits, equal to what the searches themselves would count.
type calibration struct {
	ix      *Index
	k, pool int
	walks   []walk
}

// walk is one query's pass; its buffer holds the quantized query, every
// cell nearest first (probe) and the pool (cand).
type walk struct {
	q      []float32
	truth  []ml.Candidate // the query's exact top-k
	b      *searchBuf
	qnorm  int64
	cells  int            // cells scanned
	rows   int            // code rows scanned
	widths int            // widths 1..widths are resolved
	hits   []int32        // hits[np-1]: true neighbours width np returns
	ranked []ml.Candidate // the pool at the last re-rank, with exact distances
	spare  []ml.Candidate // the next one's
	top    []ml.Candidate // re-rank scratch
}

// newCalibration measures the exact top-k of the listed rows; the walks
// start on the first recallAt.
func (ix *Index) newCalibration(rows []int32, k int) *calibration {
	k = min(k, ix.n)
	queries := make([]float32, 0, len(rows)*ix.dim)
	for _, r := range rows {
		queries = append(queries, ix.row(int(r))...)
	}
	truth := ExactTopK(ix.data, ix.dim, queries, k)
	c := &calibration{ix: ix, k: k, pool: max(ix.rerank, k), walks: make([]walk, len(rows))}
	for i, r := range rows {
		c.walks[i].q, c.walks[i].truth = ix.row(int(r)), truth[i]
	}
	return c
}

// recallAt returns the recall@k of a search at width np over the
// calibration queries, walking each query as far as np needs.
func (c *calibration) recallAt(np int) float64 {
	linalg.ParallelFor(len(c.walks), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.advance(&c.walks[i], np)
		}
	})
	hits, total := 0, 0
	for _, w := range c.walks {
		hits += int(w.hits[np-1])
		total += len(w.truth)
	}
	return float64(hits) / float64(total)
}

// advance walks w until width np is resolved.
func (c *calibration) advance(w *walk, np int) {
	ix := c.ix
	kept := ix.Clusters()
	if w.b == nil {
		w.b = ix.newSearchBuf()
		linalg.SqEuclideanRows(w.q, ix.cents, w.b.cdist)
		w.b.selectNearestClusters(w.b.cdist, kept)
		w.qnorm = ix.quantize(w.b, w.q, c.pool)
		w.hits = make([]int32, kept)
		w.ranked, w.spare = make([]ml.Candidate, 0, c.pool), make([]ml.Candidate, 0, c.pool)
		w.top = make([]ml.Candidate, 0, c.k)
	}
	for w.widths < np {
		w.rows += ix.scanCell(w.b, w.b.probe[w.cells].c, w.qnorm, c.pool)
		w.cells++
		upto := max(w.cells, w.widths)
		if len(w.b.cand) >= c.k {
			for upto < kept && ix.scanBudget(upto+1) <= w.rows {
				upto++
			}
		}
		if upto == w.widths {
			continue
		}
		h := c.rerankHits(w)
		for ; w.widths < upto; w.widths++ {
			w.hits[w.widths] = h
		}
	}
}

// rerankHits re-ranks w's pool as Search does and counts the true
// neighbours among the k it keeps. A row is measured once a query: the
// pool only ever inserts rows and drops its last, so the rows it still
// holds from the last re-rank lead that re-rank's list in the same
// order, and one pointer along the list finds their distances.
func (c *calibration) rerankHits(w *walk) int32 {
	ranked, top, j := w.spare[:0], w.top[:0], 0
	for _, qc := range w.b.cand {
		r := ml.Candidate{ID: int(qc.id)}
		if j < len(w.ranked) && w.ranked[j].ID == r.ID {
			r.Dist = w.ranked[j].Dist
			j++
		} else {
			r.Dist = linalg.SqEuclidean(w.q, c.ix.row(r.ID))
		}
		ranked = append(ranked, r)
		top = pushNearest(top, c.k, r)
	}
	w.ranked, w.spare, w.top = ranked, w.ranked, top
	var hits int32
	for _, want := range w.truth {
		for _, got := range top {
			if got.ID == want.ID {
				hits++
				break
			}
		}
	}
	return hits
}

// codeNorms returns Σ code² of every row of dim codes, which Build and
// Load derive rather than store: at most dim·128² ≤ 2³⁰ for dim ≤ maxDim.
func codeNorms(codes []int8, dim int) []int32 {
	norms := make([]int32, len(codes)/dim)
	for p := range norms {
		var s int32
		for _, c := range codes[p*dim : (p+1)*dim] {
			s += int32(c) * int32(c)
		}
		norms[p] = s
	}
	return norms
}

// row returns the i-th row of the indexed matrix.
func (ix *Index) row(i int) []float32 {
	return ix.data[i*ix.dim : (i+1)*ix.dim]
}

// exactBlock is how many rows of the matrix ExactTopK transposes at a
// time: a dim × 496 float64 table a worker (1.5 MB at dim 384). Not
// 512: a 4 KiB stride would put a row's every coordinate in one cache
// set as it is written.
const exactBlock = 496

// ExactTopK returns, for each of the len(queries)/dim queries, the
// min(k, n) rows of data (n rows of dim float32s) nearest to it under
// linalg.SqEuclidean, nearest first, ties to the lower row id: exactly
// what inserting every row in ascending id under pushNearest's rule
// gives. Calibration measures recall against it. It panics on a dim
// that does not divide both matrices.
//
// It filters, then checks, as assignRows does, with the query as the
// sparse vector and the rows as the columns: linalg.SparseSqDistCols
// measures f(r) = ‖r‖² − 2·q·r, the distance less ‖q‖², for a block of
// rows transposed into a table, and a query keeps every row within a
// margin of the k-th smallest f it has seen so far, in ascending id.
// Only those rows are measured with linalg.SqEuclidean and inserted in
// that order, under pushNearest's rule. The running k-th smallest only
// falls, so the kept rows are a superset of those within the margin of
// the final k-th smallest, f̂_k; the insertion gives the dense scan's
// answer whenever every row of that answer is among them.
//
// The margin is assignRows' own with k candidates in place of one. With
// its e(r) = eF(r) + eD(r) ≤ 2(dim+4)·u·Smax, for a row w of the dense
// top-k at most k−1 rows rank before it, so of the k rows of least f̂
// at least one, c, is w or ranks after it: D̂(w) ≤ D̂(c), and the same
// chain gives f̂(w) ≤ f̂(c) + e(w) + e(c) ≤ f̂_k + 4(dim+4)·u·Smax. The
// margin used is again (dim+4)·2⁻⁵⁰·Ŝmax, Smax = (‖q‖ + max‖r‖)². A
// non-finite value in the query or in any row makes it non-finite, and
// then every row is kept and measured: the dense scan itself.
func ExactTopK(data []float32, dim int, queries []float32, k int) [][]ml.Candidate {
	if dim <= 0 || len(data)%dim != 0 || len(queries)%dim != 0 {
		panic(fmt.Sprintf("ivf: ExactTopK on %d data and %d query values of dim %d", len(data), len(queries), dim))
	}
	n := len(data) / dim
	out := make([][]ml.Candidate, len(queries)/dim)
	k = min(k, n)
	if k <= 0 {
		return out
	}
	norms, maxNorm := make([]float64, n), 0.0
	for r := range norms {
		var sq float64
		for _, v := range rowOf(data, dim, r) {
			sq += float64(v) * float64(v)
		}
		norms[r], maxNorm = sq, max(maxNorm, sq)
	}
	x := newSparseRows(queries, dim)
	linalg.ParallelFor(len(out), func(lo, hi int) {
		state := make([]exactKept, hi-lo)
		for i := range state {
			sq := x.sq[lo+i]
			smax := sq + maxNorm + 2*math.Sqrt(sq*maxNorm)
			state[i] = exactKept{k: k, margin: float64(dim+4) * 0x1p-50 * smax, least: make([]float64, 0, k)}
		}
		table, bnorms, filter := make([]float64, dim*exactBlock), make([]float64, exactBlock), make([]float64, exactBlock)
		for base := 0; base < n; base += exactBlock {
			rows := min(exactBlock, n-base)
			cols := (rows + 15) &^ 15 // the padding columns are measured and ignored
			t := table[:dim*cols]
			clear(t)
			for c := 0; c < rows; c++ {
				for d, v := range rowOf(data, dim, base+c) {
					if v != 0 {
						t[d*cols+c] = float64(v)
					}
				}
			}
			copy(bnorms, norms[base:base+rows])
			for i := range state {
				idx, val := x.row(lo + i)
				linalg.SparseSqDistCols(bnorms[:cols], idx, val, t, filter[:cols])
				state[i].add(filter[:rows], base)
			}
		}
		for i := range state {
			q := rowOf(queries, dim, lo+i)
			top := make([]ml.Candidate, 0, k)
			for _, r := range state[i].within() {
				top = pushNearest(top, k, ml.Candidate{ID: int(r.id), Dist: linalg.SqEuclidean(q, rowOf(data, dim, int(r.id)))})
			}
			out[lo+i] = top
		}
	})
	return out
}

// exactKept is one ExactTopK query's filter state: the k smallest
// filter values so far, ascending, and the rows within the margin of
// the k-th of them when they were seen, in ascending id.
type exactKept struct {
	k      int
	margin float64
	least  []float64
	rows   []filtered
	limit  int // len(rows) at which they are next pruned
}

type filtered struct {
	f  float64
	id int32
}

// bound is the filter value a row must not exceed to be kept; it is
// non-finite, and every row kept, while fewer than k rows were seen or
// if the margin is.
func (e *exactKept) bound() float64 {
	if len(e.least) < e.k {
		return math.Inf(1)
	}
	return e.least[e.k-1] + e.margin
}

// add files the filter values f of rows base, base+1, ….
func (e *exactKept) add(f []float64, base int) {
	k, bound := e.k, e.bound()
	for c, v := range f {
		if v > bound { // never, for a NaN bound
			continue
		}
		e.rows = append(e.rows, filtered{f: v, id: int32(base + c)})
		if len(e.least) == k && !(v < e.least[k-1]) {
			continue
		}
		pos := len(e.least)
		if pos < k {
			e.least = append(e.least, 0)
		} else {
			pos--
		}
		for pos > 0 && e.least[pos-1] > v {
			e.least[pos] = e.least[pos-1]
			pos--
		}
		e.least[pos] = v
		bound = e.bound()
	}
	if len(e.rows) >= e.limit {
		e.rows = e.within()
		e.limit = max(2*len(e.rows), 64)
	}
}

// within returns the kept rows inside the current bound, in place.
func (e *exactKept) within() []filtered {
	bound := e.bound()
	if !(bound <= math.MaxFloat64) {
		return e.rows
	}
	out := e.rows[:0]
	for _, r := range e.rows {
		if r.f <= bound {
			out = append(out, r)
		}
	}
	return out
}

// pushNearest inserts c into top, the k ≥ 1 nearest candidates so far
// in ascending distance, under the one rule every ranking of this
// package shares: a candidate no nearer than the k-th is dropped, and
// one that ties an entry goes after it, so among equal distances the
// one offered first stays ahead.
func pushNearest(top []ml.Candidate, k int, c ml.Candidate) []ml.Candidate {
	if len(top) == k && c.Dist >= top[len(top)-1].Dist {
		return top
	}
	pos := len(top)
	if pos < k {
		top = append(top, ml.Candidate{})
	} else {
		pos--
	}
	for pos > 0 && top[pos-1].Dist > c.Dist {
		top[pos] = top[pos-1]
		pos--
	}
	top[pos] = c
	return top
}

// kmeans runs DefaultKMeansIters seeded Lloyd iterations on a uniform
// sample of the rows, then assigns every row to its nearest fitted
// centroid. Returns the centroid matrix and the per-row assignment.
// Deterministic in (data, dim, k, sample, seed).
func kmeans(data []float32, dim, n, k, sample int, seed uint64) (cents []float32, assign []int32) {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)

	// Sample without replacement via partial Fisher-Yates.
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for i := 0; i < sample; i++ {
		j := i + rng.Intn(n-i)
		rows[i], rows[j] = rows[j], rows[i]
	}
	rows = rows[:sample]

	// Initial centroids: k distinct sampled rows.
	cents = make([]float32, k*dim)
	for c := 0; c < k; c++ {
		copy(cents[c*dim:(c+1)*dim], rowOf(data, dim, int(rows[c%len(rows)])))
	}

	x := newSparseRows(data, dim)
	table := newCentroidTable(k, dim)
	sampleAssign := make([]int32, sample)
	sums := make([]float64, k*dim)
	counts := make([]int64, k)
	for range DefaultKMeansIters {
		assignRows(data, dim, x, rows, cents, table, sampleAssign)

		for i := range sums {
			sums[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		// A zero adds nothing to a sum that starts at +0 (the sum never
		// becomes −0), so only the nonzero coordinates are added: per
		// coordinate the same adds in the same row order as a dense pass.
		for i, c := range sampleAssign {
			idx, val := x.row(int(rows[i]))
			s := sums[int(c)*dim : (int(c)+1)*dim]
			for j, d := range idx {
				s[d] += val[j]
			}
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed a dead centroid on a random sampled row so k
				// cells stay in play while fitting.
				copy(cents[c*dim:(c+1)*dim], rowOf(data, dim, int(rows[rng.Intn(sample)])))
				continue
			}
			inv := 1 / float64(counts[c])
			cc := cents[c*dim : (c+1)*dim]
			s := sums[c*dim : (c+1)*dim]
			for d := range cc {
				cc[d] = float32(s[d] * inv)
			}
		}
	}

	// Final assignment of every row to the fitted centroids.
	assign = make([]int32, n)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	assignRows(data, dim, x, all, cents, table, assign)
	return cents, assign
}

// sparseRows lists the nonzero coordinates of every row of a matrix
// (compressed sparse rows): row r's are idx[ptr[r]:ptr[r+1]] with their
// values in val, in coordinate order, and sq[r] is the row's squared
// norm. The job embeddings k-means clusters set about a quarter of
// their coordinates.
type sparseRows struct {
	ptr []int32
	idx []int32
	val []float64 // the float32 values, widened once for the filter
	sq  []float64
}

func newSparseRows(data []float32, dim int) *sparseRows {
	n, nnz := len(data)/dim, 0
	for _, v := range data {
		if v != 0 {
			nnz++
		}
	}
	x := &sparseRows{
		ptr: make([]int32, n+1), idx: make([]int32, nnz),
		val: make([]float64, nnz), sq: make([]float64, n),
	}
	j := 0
	for r := 0; r < n; r++ {
		var sq float64
		for d, v := range rowOf(data, dim, r) {
			if v != 0 {
				x.idx[j], x.val[j] = int32(d), float64(v)
				sq += float64(v) * float64(v)
				j++
			}
		}
		x.ptr[r+1], x.sq[r] = int32(j), sq
	}
	return x
}

func (x *sparseRows) row(r int) (idx []int32, val []float64) {
	lo, hi := x.ptr[r], x.ptr[r+1]
	return x.idx[lo:hi], x.val[lo:hi]
}

// centroidTable holds k centroids of width dim transposed for
// linalg.SparseSqDistCols (padded to a multiple of sixteen columns) and
// their squared norms. One table serves every assignRows call of a
// k-means fit: each call rewrites its k columns, and the padding stays
// zero.
type centroidTable struct {
	table, norms []float64
}

func newCentroidTable(k, dim int) *centroidTable {
	cols := (k + 15) &^ 15
	return &centroidTable{table: make([]float64, dim*cols), norms: make([]float64, cols)}
}

// assignRows writes the nearest-centroid id of each listed row into
// out, fanned out across GOMAXPROCS workers: the lowest c minimising
// linalg.SqEuclidean(row, centroid c), exactly.
//
// It filters, then checks. The filter is linalg.SparseSqDistCols over
// the row's nonzeros and the centroids transposed into t, a table sized
// for them: f(c) = ‖c‖² − 2·x·c, the distance less ‖x‖², at about
// nnz/dim of a distance's cost per centroid. The check measures with
// linalg.SqEuclidean only the centroids with f(c) ≤ min f + margin, in
// ascending c with a strict <, which is the dense scan's lowest-index
// tie rule — so the result is the dense scan's whenever the margin
// keeps its winner.
//
// The margin is a bound on rounding, not a tuning knob. With
// u = 2⁻⁵³, γ_m = m·u/(1 − m·u), f(c) and D(c) = ‖x − c‖² the exact
// values, f̂ and D̂ the computed ones, and S(c) = (‖x‖ + ‖c‖)²:
//
//   - the filter's products x_i·c_i and squares c_i² of float32 values
//     are exact in float64, so its error is that of a sum of dim squares,
//     a sum of nnz ≤ dim products and one subtraction:
//     eF(c) = |f̂ − f| ≤ γ_dim·‖c‖² + γ_nnz·2‖x‖‖c‖ ≤ γ_dim·S(c);
//   - the reference rounds a difference, a square and a two-lane sum:
//     eD(c) = |D̂ − D| ≤ γ_(dim+3)·D ≤ γ_(dim+3)·S(c), as D ≤ S(c).
//
// Write e = eF + eD ≤ 2γ_(dim+3)·S ≤ 2(dim+4)·u·S. For the dense
// winner w, D̂(w) ≤ D̂(c) for every c, and f = D − ‖x‖², so
// f̂(w) − e(w) ≤ D(w) − eD(w) − ‖x‖² ≤ D̂(w) − ‖x‖² ≤ D̂(c) − ‖x‖²
// ≤ D(c) + eD(c) − ‖x‖² ≤ f̂(c) + e(c): w survives any margin of at
// least e(w) + e(c) above c = argmin f̂, and 4(dim+4)·u·Smax, with
// Smax = (‖x‖ + max‖c‖)², is one. The margin used is twice that,
// (dim+4)·2⁻⁵⁰·Ŝmax; the factor two covers the rounding of Ŝmax and
// of min f̂ + margin. On unit-norm embeddings it is about 10⁻¹², and one
// centroid survives per row. A non-finite value anywhere (the bound then
// says nothing) makes the bound non-finite, and every centroid is
// checked.
func assignRows(data []float32, dim int, x *sparseRows, rows []int32, cents []float32, t *centroidTable, out []int32) {
	k := len(cents) / dim
	table, norms, maxNorm := t.table, t.norms, 0.0
	cols := len(norms)
	for c := 0; c < k; c++ {
		var sq float64
		for d, v := range rowOf(cents, dim, c) {
			table[d*cols+c] = float64(v)
			sq += float64(v) * float64(v)
		}
		norms[c], maxNorm = sq, max(maxNorm, sq)
	}
	linalg.ParallelFor(len(rows), func(lo, hi int) {
		filter := make([]float64, cols)
		for i := lo; i < hi; i++ {
			r := int(rows[i])
			idx, val := x.row(r)
			linalg.SparseSqDistCols(norms, idx, val, table, filter)
			f := filter[:k]
			least := math.Inf(1)
			for _, v := range f {
				if v < least {
					least = v
				}
			}
			smax := x.sq[r] + maxNorm + 2*math.Sqrt(x.sq[r]*maxNorm)
			bound := least + float64(dim+4)*0x1p-50*smax
			all := !(bound <= math.MaxFloat64)
			row := rowOf(data, dim, r)
			best, bestD := 0, math.Inf(1)
			for c, v := range f {
				if v <= bound || all {
					if d := linalg.SqEuclidean(row, rowOf(cents, dim, c)); d < bestD {
						best, bestD = c, d
					}
				}
			}
			out[i] = int32(best)
		}
	})
}

func rowOf(data []float32, dim, row int) []float32 {
	return data[row*dim : (row+1)*dim]
}

// Len implements ml.VectorIndex.
func (ix *Index) Len() int { return ix.n }

// Dim implements ml.VectorIndex.
func (ix *Index) Dim() int { return ix.dim }

// Clusters returns the number of (non-empty) coarse-quantizer cells.
func (ix *Index) Clusters() int { return len(ix.starts) - 1 }

// NProbe returns the cells scanned per query.
func (ix *Index) NProbe() int { return ix.nprobe }

// Rerank returns the exact re-rank pool size per query.
func (ix *Index) Rerank() int { return ix.rerank }

// Stats snapshots the scan counter, which like TotalProbes counts the
// searches of every index (benchmark/'s linalg.int8_bytes_per_query
// reads it around a run of one index's searches).
func (*Index) Stats() Stats { return Stats{Scanned: totalScanned.Load()} }

// Search implements ml.VectorIndex: quantize the query, scan the nprobe
// nearest cells over int8 codes keeping a bounded top-R pool, then
// re-rank the pool with exact float32 distances and return the top k.
//
// The scan measures a cell in one pass: linalg.DotInt8Rows over its
// contiguous codes, then per row Σq² + Σx² − 2·q·x with the stored norm
// — integer for integer the Σ(q−x)² of linalg.SqDistInt8, so the pool,
// its order and everything after it are what a row-by-row scan gives.
func (ix *Index) Search(q []float32, k int, dst []ml.Candidate) []ml.Candidate {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if len(q) != ix.dim {
		panic(fmt.Sprintf("ivf: query dim %d, index dim %d", len(q), ix.dim))
	}
	if k > ix.n {
		k = ix.n
	}
	pool := ix.rerank
	if pool < k {
		pool = k
	}

	b, _ := ix.bufs.Get().(*searchBuf)
	if b == nil {
		b = ix.newSearchBuf()
	}
	defer ix.bufs.Put(b)

	// Exact centroid distances, then the nprobe nearest cells.
	linalg.SqEuclideanRows(q, ix.cents, b.cdist)
	b.selectNearestClusters(b.cdist, ix.nprobe)
	probed, scanned := ix.scan(b, q, k, pool, ix.nprobe)
	cand := b.cand

	// Exact re-rank of the pool; bounded top-k insertion into dst.
	for _, qc := range cand {
		dst = pushNearest(dst, k, ml.Candidate{ID: int(qc.id), Dist: linalg.SqEuclidean(q, ix.row(int(qc.id)))})
	}

	totalProbes.Add(int64(probed))
	totalReranked.Add(int64(len(cand)))
	totalScanned.Add(int64(scanned))
	return dst
}

// newSearchBuf sizes one query's scratch to this index: dots holds the
// largest cell.
func (ix *Index) newSearchBuf() *searchBuf {
	nclusters, largest := ix.Clusters(), int32(0)
	for c := 0; c < nclusters; c++ {
		largest = max(largest, ix.starts[c+1]-ix.starts[c])
	}
	return &searchBuf{
		qq: make([]int8, ix.dim), qw: make([]int16, ix.dim),
		dots: make([]int32, largest), cdist: make([]float64, nclusters),
	}
}

// scan is the quantized pass of a search: it leaves in b.cand the pool
// rows of the cells in b.probe nearest to q by int8 distance, nearest
// first (ties in scan order), and returns how many cells and code rows
// it visited.
func (ix *Index) scan(b *searchBuf, q []float32, k, pool, nprobe int) (probed, scanned int) {
	qnorm := ix.quantize(b, q, pool)
	// Scan budget: cells are probed nearest-centroid first, and a query
	// landing amid oversized cells stops at the budget (once k candidates
	// exist) instead of blowing the tail latency. Calibration measures
	// recall with the budget in force.
	budget := ix.scanBudget(nprobe)
	for _, p := range b.probe {
		scanned += ix.scanCell(b, p.c, qnorm, pool)
		probed++
		if scanned >= budget && len(b.cand) >= k {
			break
		}
	}
	return probed, scanned
}

// scanBudget is the code rows after which a scan of nprobe cells stops
// early: 1.25× the expected population of nprobe cells.
func (ix *Index) scanBudget(nprobe int) int {
	nclusters := ix.Clusters()
	return nprobe * ((ix.n + nclusters - 1) / nclusters) * 5 / 4
}

// quantize readies b to scan for q: the query quantized and widened,
// the pool emptied with room for pool rows. It returns Σq².
func (ix *Index) quantize(b *searchBuf, q []float32, pool int) int64 {
	linalg.QuantizeInt8(b.qq, q, ix.scale)
	var qnorm int64
	for i, c := range b.qq {
		b.qw[i] = int16(c)
		qnorm += int64(c) * int64(c)
	}
	if cap(b.cand) < pool {
		b.cand = make([]quantCand, 0, pool)
	}
	b.cand = b.cand[:0]
	return qnorm
}

// scanCell adds the rows of cell c to the bounded pool b.cand (at most
// pool rows, nearest first, ties in scan order) and returns how many it
// measured. One cell, one pass: its codes are adjacent, its dot
// products one kernel call, and Σq² + Σx² − 2·q·x is Σ(q−x)² exactly.
func (ix *Index) scanCell(b *searchBuf, c int32, qnorm int64, pool int) int {
	lo, hi := int(ix.starts[c]), int(ix.starts[c+1])
	dots := b.dots[:hi-lo]
	linalg.DotInt8Rows(b.qw, ix.codes[lo*ix.dim:hi*ix.dim], dots)
	cand := b.cand
	worst := int64(math.MaxInt64)
	if len(cand) > 0 {
		worst = cand[len(cand)-1].dist
	}
	for j, dot := range dots {
		d := qnorm + int64(ix.norms[lo+j]) - 2*int64(dot)
		if len(cand) == pool && d >= worst {
			continue
		}
		pos := len(cand)
		if pos < pool {
			cand = append(cand, quantCand{})
		} else {
			pos--
		}
		for pos > 0 && cand[pos-1].dist > d {
			cand[pos] = cand[pos-1]
			pos--
		}
		cand[pos] = quantCand{dist: d, id: ix.member[lo+j]}
		worst = cand[len(cand)-1].dist
	}
	b.cand = cand
	return hi - lo
}

// selectNearestClusters fills b.probe with the nprobe smallest
// distances (ascending by distance) via bounded insertion.
func (b *searchBuf) selectNearestClusters(cdist []float64, nprobe int) {
	if nprobe > len(cdist) {
		nprobe = len(cdist)
	}
	if cap(b.probe) < nprobe {
		b.probe = make([]clusterDist, 0, nprobe)
	}
	top := b.probe[:0]
	worst := math.Inf(1)
	for c, d := range cdist {
		if len(top) == nprobe && d >= worst {
			continue
		}
		pos := len(top)
		if pos < nprobe {
			top = append(top, clusterDist{})
		} else {
			pos--
		}
		for pos > 0 && top[pos-1].d > d {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = clusterDist{d: d, c: int32(c)}
		worst = top[len(top)-1].d
	}
	b.probe = top
}

// ErrCorruptIndex is wrapped by Load on any malformed index section.
var ErrCorruptIndex = errors.New("ivf: corrupt index section")

// Sanity caps for deserialized headers: reject before multiplying, so
// adversarial sizes cannot overflow into small allocations.
const (
	maxDim      = 1 << 16
	maxClusters = 1 << 24
)

// EncodedLen returns the number of bytes AppendBinary appends.
func (ix *Index) EncodedLen() int {
	k := ix.Clusters()
	return 16 + 4*k*ix.dim + 4*(k+1) + 4*ix.n + ix.n*ix.dim
}

// AppendBinary appends the index structure (everything except the
// float32 data matrix, which the owner serializes once) to b and
// returns the extended slice, in the shape of Go 1.24's
// encoding.BinaryAppender; it grows b at most once, by EncodedLen, and
// never fails. Layout, all little-endian:
//
//	nclusters int32 | nprobe int32 | rerank int32 | scale float32
//	centroids [nclusters*dim]float32
//	starts    [nclusters+1]int32
//	member    [n]int32
//	codes     [n*dim]int8, in row order (row 0 first, not member[0])
func (ix *Index) AppendBinary(b []byte) ([]byte, error) {
	return ix.AppendStream(slices.Grow(b, ix.EncodedLen()), nil), nil
}

// AppendStream appends the bytes of AppendBinary to b, handing b to
// spill (ml.Spill) whenever it fills: a model streamed to disk holds
// one buffer of the section at a time, not all of it.
func (ix *Index) AppendStream(b []byte, spill func([]byte) []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(ix.Clusters()))
	b = le.AppendUint32(b, uint32(ix.nprobe))
	b = le.AppendUint32(b, uint32(ix.rerank))
	b = le.AppendUint32(b, math.Float32bits(ix.scale))
	for c := 0; c < ix.Clusters(); c++ {
		b = ml.Spill(ml.AppendFloat32s(b, rowOf(ix.cents, ix.dim, c)), spill)
	}
	for _, v := range ix.starts {
		b = ml.Spill(le.AppendUint32(b, uint32(v)), spill)
	}
	for _, v := range ix.member {
		b = ml.Spill(le.AppendUint32(b, uint32(v)), spill)
	}
	pos := make([]int32, ix.n) // row id → position, the inverse of member
	for p, row := range ix.member {
		pos[row] = int32(p)
	}
	for _, p := range pos {
		b = slices.Grow(b, ix.dim)
		raw := b[len(b) : len(b)+ix.dim]
		for i, c := range ix.codes[int(p)*ix.dim : (int(p)+1)*ix.dim] {
			raw[i] = byte(c)
		}
		b = ml.Spill(b[:len(b)+ix.dim], spill)
	}
	return b
}

// Load deserializes an index section written by AppendBinary, attaching
// it to the caller's data matrix (n rows of dim float32s, retained for
// re-ranking). Every structural invariant is re-validated: cluster
// offsets must be monotone and cover exactly n member ids, and every
// row id must appear exactly once — a corrupted section yields a typed
// error, never a panic or an index that can read out of bounds.
func Load(r *bytes.Reader, data []float32, dim int) (*Index, error) {
	if dim <= 0 || dim > maxDim || len(data)%dim != 0 {
		return nil, fmt.Errorf("%w: bad data matrix %d×%d", ErrCorruptIndex, len(data), dim)
	}
	n := len(data) / dim
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var nclusters, nprobe, rerank int32
	var scale float32
	for _, v := range []any{&nclusters, &nprobe, &rerank, &scale} {
		if err := rd(v); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrCorruptIndex)
		}
	}
	if nclusters < 1 || int(nclusters) > maxClusters || int(nclusters) > n {
		return nil, fmt.Errorf("%w: %d clusters over %d rows", ErrCorruptIndex, nclusters, n)
	}
	if nprobe < 1 || nprobe > nclusters {
		return nil, fmt.Errorf("%w: nprobe %d of %d clusters", ErrCorruptIndex, nprobe, nclusters)
	}
	if rerank < 1 || int(rerank) > maxClusters {
		return nil, fmt.Errorf("%w: rerank %d", ErrCorruptIndex, rerank)
	}
	if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale < 0 {
		return nil, fmt.Errorf("%w: quantization scale %v", ErrCorruptIndex, scale)
	}
	// nclusters ≤ 2^24 and dim ≤ 2^16: the products below fit in int64
	// with room to spare, and the reads fail fast on truncation.
	cents := make([]float32, int(nclusters)*dim)
	if err := rd(cents); err != nil {
		return nil, fmt.Errorf("%w: truncated centroids", ErrCorruptIndex)
	}
	for _, v := range cents {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("%w: non-finite centroid", ErrCorruptIndex)
		}
	}
	starts := make([]int32, int(nclusters)+1)
	if err := rd(starts); err != nil {
		return nil, fmt.Errorf("%w: truncated cluster offsets", ErrCorruptIndex)
	}
	if starts[0] != 0 || int(starts[nclusters]) != n {
		return nil, fmt.Errorf("%w: cluster offsets cover %d of %d rows", ErrCorruptIndex, starts[nclusters], n)
	}
	for c := 0; c < int(nclusters); c++ {
		if starts[c+1] <= starts[c] { // empty cells are dropped at build
			return nil, fmt.Errorf("%w: non-increasing cluster offsets", ErrCorruptIndex)
		}
	}
	member := make([]int32, n)
	if err := rd(member); err != nil {
		return nil, fmt.Errorf("%w: truncated member list", ErrCorruptIndex)
	}
	pos := make([]int32, n) // row id → position, the inverse of member
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range member {
		if id < 0 || int(id) >= n || pos[id] >= 0 {
			return nil, fmt.Errorf("%w: bad member row id %d", ErrCorruptIndex, id)
		}
		pos[id] = int32(p)
	}
	// The file has the codes in row order; each row goes straight to its
	// cell-major slot, through one row of scratch.
	codes := make([]int8, n*dim)
	raw := make([]byte, dim)
	for _, p := range pos {
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, fmt.Errorf("%w: truncated codes", ErrCorruptIndex)
		}
		slot := codes[int(p)*dim:][:dim]
		for i, c := range raw {
			slot[i] = int8(c)
		}
	}
	ix := &Index{
		dim: dim, n: n, scale: scale,
		cents: cents, starts: starts, member: member,
		codes: codes, norms: codeNorms(codes, dim), data: data,
		nprobe: int(nprobe), rerank: int(rerank),
	}
	return ix, nil
}
