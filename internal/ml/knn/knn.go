// Package knn implements the k-Nearest-Neighbors Classification Model of
// MCBound: training stores the encoded data points; inference is a
// majority vote among the k most similar points under the Minkowski
// distance (paper §III-D). Distance scans are parallelized across cores
// and run over a single contiguous buffer for cache locality.
package knn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"mcbound/internal/job"
	"mcbound/internal/linalg"
	"mcbound/internal/ml"
	"mcbound/internal/ml/ivf"
)

// Config holds the KNN hyper-parameters. The defaults match
// scikit-learn's KNeighborsClassifier defaults used by the paper.
type Config struct {
	K     int         // number of neighbors (default 5)
	P     float64     // Minkowski order (default 2, Euclidean)
	Index IndexConfig // sub-linear search structure (zero value = auto)
}

// IndexMode selects when Train builds an IVF index over the group
// matrix instead of leaving Predict on the brute-force scan.
type IndexMode string

const (
	// IndexAuto (the zero value) builds the index only when the trained
	// group count reaches IndexConfig.MinGroups — small windows stay on
	// the exact scan, which is both faster and exact at that size.
	IndexAuto IndexMode = "auto"
	// IndexOn always builds the index (when the metric supports it).
	IndexOn IndexMode = "on"
	// IndexOff never builds it.
	IndexOff IndexMode = "off"
)

// DefaultMinGroups is the auto-mode threshold: below this many unique
// vectors a brute-force scan beats the index's probe overhead.
const DefaultMinGroups = 4096

// IndexConfig controls the optional IVF index. Only the Euclidean
// metric (P == 2) is indexable; other Minkowski orders always fall back
// to brute force.
type IndexConfig struct {
	Mode      IndexMode // ""/auto, on, off
	MinGroups int       // auto threshold; 0 = DefaultMinGroups
	NClusters int       // ivf.Config.NClusters
	NProbe    int       // ivf.Config.NProbe
	Rerank    int       // ivf.Config.Rerank
	Seed      uint64    // ivf.Config.Seed
}

// enabled reports whether a model with the given metric and group count
// should carry an index.
func (ic IndexConfig) enabled(p float64, groups int) bool {
	if p != 2 || groups < 1 {
		return false
	}
	switch ic.Mode {
	case IndexOn:
		return true
	case IndexOff:
		return false
	default:
		min := ic.MinGroups
		if min <= 0 {
			min = DefaultMinGroups
		}
		return groups >= min
	}
}

// DefaultConfig returns the scikit-learn defaults.
func DefaultConfig() Config { return Config{K: 5, P: 2} }

// Classifier is a KNN model. The zero value is unusable; use New.
//
// Training deduplicates identical vectors into groups carrying per-label
// multiplicities: HPC jobs arrive in batches of identical submissions, so
// the stored matrix shrinks by one to two orders of magnitude while the
// k-nearest vote stays exact up to tie-breaking among equidistant
// duplicates (which brute-force KNN leaves unspecified anyway — within a
// duplicate group votes are consumed majority-label first).
type Classifier struct {
	cfg Config

	mu     sync.RWMutex
	dim    int
	n      int        // total training points (with multiplicity)
	groups int        // unique vectors
	data   []float32  // groups*dim row-major unique-vector matrix
	counts [][2]int32 // per group: votes for memory-/compute-bound
	index  *ivf.Index // sub-linear search over data; nil = brute force
}

// New builds an untrained KNN classifier. Invalid config values fall back
// to the defaults.
func New(cfg Config) *Classifier {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.P <= 0 {
		cfg.P = DefaultConfig().P
	}
	return &Classifier{cfg: cfg}
}

// Name implements ml.Classifier.
func (c *Classifier) Name() string { return "knn" }

// Config returns the model's hyper-parameters.
func (c *Classifier) Config() Config { return c.cfg }

// TrainSize returns the number of stored training points (with
// multiplicity).
func (c *Classifier) TrainSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Groups returns the number of unique stored vectors.
func (c *Classifier) Groups() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.groups
}

// Train implements ml.Classifier. KNN "training" is storing the
// training set as a matrix of unique vectors with per-label
// multiplicities, which is why the paper measures it in fractions of a
// second. Rows that share a backing array — the encoder hands jobs with
// equal feature strings one slice — are one vector: Train copies each
// backing array's vector once into a fresh matrix and hands it to
// TrainMatrix, which merges equal vectors in separate arrays.
func (c *Classifier) Train(x [][]float32, y []job.Label) error {
	if err := ml.CheckTrainingData(x, y); err != nil {
		return err
	}
	dim := len(x[0])
	byVec := map[*float32]int32{} // backing array -> matrix row
	var firsts []int              // per matrix row, the row of x it copies
	row := make([]int32, 0, len(x))
	labels := make([]job.Label, 0, len(x))
	for i, v := range x {
		if y[i] == job.Unknown {
			continue
		}
		r, ok := byVec[&v[0]]
		if !ok {
			r = int32(len(firsts))
			byVec[&v[0]] = r
			firsts = append(firsts, i)
		}
		row = append(row, r)
		labels = append(labels, y[i])
	}
	data := make([]float32, len(firsts)*dim)
	for r, i := range firsts {
		copy(data[r*dim:(r+1)*dim], x[i])
	}
	return c.TrainMatrix(data, dim, row, labels)
}

// TrainMatrix fits the model on a matrix of vectors (rows of dim,
// row-major) and, per training point, the row of its vector and its
// label: point i is data[row[i]*dim:][:dim] with label y[i]. The model
// takes data and keeps it as its group matrix: equal vectors are merged
// in place, in order of their first labeled point, so when every row is
// distinct and first labeled in row order nothing moves and no copy is
// made. The caller must not touch data afterwards.
func (c *Classifier) TrainMatrix(data []float32, dim int, row []int32, y []job.Label) error {
	if len(row) == 0 {
		return ml.ErrNoData
	}
	if len(row) != len(y) {
		return fmt.Errorf("knn: %d points vs %d labels", len(row), len(y))
	}
	if dim <= 0 || len(data)%dim != 0 {
		return fmt.Errorf("knn: %d values are not rows of width %d", len(data), dim)
	}
	rows := len(data) / dim
	group := make([]int32, rows) // matrix row -> group + 1; 0 = not yet seen
	byHash := map[uint64][]int32{}
	var reps []int32 // per group, the matrix row holding its vector
	var counts [][2]int32
	n := 0
	for i, r := range row {
		if r < 0 || int(r) >= rows {
			return fmt.Errorf("knn: point %d names row %d of %d", i, r, rows)
		}
		if y[i] == job.Unknown {
			continue
		}
		n++
		g := group[r] - 1
		if g < 0 {
			v := rowAt(data, dim, r)
			h := hashVec(v)
			for _, cand := range byHash[h] {
				if equalVec(rowAt(data, dim, reps[cand]), v) {
					g = cand
					break
				}
			}
			if g < 0 {
				g = int32(len(reps))
				reps = append(reps, r)
				counts = append(counts, [2]int32{})
				byHash[h] = append(byHash[h], g)
			}
			group[r] = g + 1
		}
		if y[i] == job.ComputeBound {
			counts[g][1]++
		} else {
			counts[g][0]++
		}
	}
	if n == 0 {
		return fmt.Errorf("knn: no labeled training rows")
	}
	data = compactRows(data, dim, reps)

	// Sub-linear search structure over the group matrix. A build failure
	// is not a training failure: the model falls back to the exact scan.
	var index *ivf.Index
	if c.cfg.Index.enabled(c.cfg.P, len(reps)) {
		index, _ = ivf.Build(data, dim, ivf.Config{
			NClusters: c.cfg.Index.NClusters,
			NProbe:    c.cfg.Index.NProbe,
			Rerank:    c.cfg.Index.Rerank,
			Seed:      c.cfg.Index.Seed,
		})
	}

	c.mu.Lock()
	c.dim, c.n, c.groups, c.data, c.counts = dim, n, len(reps), data, counts
	c.index = index
	c.mu.Unlock()
	return nil
}

// compactRows returns the matrix whose row g is data's row reps[g]. When
// reps ascends, each row moves down over rows no later group reads, in
// place, and rows already in place stay; otherwise (a row first labeled
// after a later one) the rows are copied out.
func compactRows(data []float32, dim int, reps []int32) []float32 {
	size := len(reps) * dim
	out := data[:size:size]
	inPlace := slices.IsSorted(reps) // the reps are distinct
	if !inPlace {
		out = make([]float32, size)
	}
	for g, r := range reps {
		if !inPlace || int(r) != g {
			copy(out[g*dim:(g+1)*dim], rowAt(data, dim, r))
		}
	}
	return out
}

// rowAt is row r of a row-major matrix of rows of dim.
func rowAt(data []float32, dim int, r int32) []float32 {
	return data[int(r)*dim : (int(r)+1)*dim]
}

// Predict implements ml.Classifier: queries fan out across cores; each
// finds its k nearest groups (predictOne: the IVF index when the model
// carries one, the exact scan otherwise) and takes the majority vote
// among the k nearest points (ties broken toward the nearest).
func (c *Classifier) Predict(x [][]float32) ([]job.Label, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.n == 0 {
		return nil, ml.ErrNotTrained
	}
	for i, v := range x {
		if len(v) != c.dim {
			return nil, fmt.Errorf("knn: query %d has dim %d, want %d", i, len(v), c.dim)
		}
	}
	out := make([]job.Label, len(x))
	linalg.ParallelFor(len(x), func(lo, hi int) {
		top := make([]ml.Candidate, 0, c.cfg.K)
		for i := lo; i < hi; i++ {
			out[i] = c.predictOne(x[i], top)
		}
	})
	return out, nil
}

// predictOne finds the k nearest training points of q, using top as
// scratch. Because every group holds at least one point, the k nearest
// points are contained in the k nearest groups, so a bounded top-k over
// groups (Candidate.ID is the group) suffices. With an index built, the
// group scan is replaced by an IVF search (approximate:
// TestRecallGateAtScale bounds the neighbor-set difference).
func (c *Classifier) predictOne(q []float32, top []ml.Candidate) job.Label {
	k := min(c.cfg.K, c.n)
	kg := min(k, c.groups)
	if c.index != nil {
		top = c.index.Search(q, kg, top)
	} else {
		top = c.scanGroups(q, kg, top)
	}
	return c.vote(top, k)
}

// scanBlock is how many groups scanGroups measures per distance call:
// the block's distances live on the stack.
const scanBlock = 256

// scanGroups is the exact search: the kg groups of the model's matrix
// nearest to q under its Minkowski distance, nearest first, in top[:0].
// The matrix is contiguous, so the Euclidean case measures a block of
// rows per call.
func (c *Classifier) scanGroups(q []float32, kg int, top []ml.Candidate) []ml.Candidate {
	data, dim, groups, p := c.data, c.dim, c.groups, c.cfg.P
	top = top[:0]
	worst := math.Inf(1)
	var block [scanBlock]float64
	for lo := 0; lo < groups; lo += scanBlock {
		dist := block[:min(scanBlock, groups-lo)]
		rows := data[lo*dim : (lo+len(dist))*dim]
		if p == 2 {
			linalg.SqEuclideanRows(q, rows, dist) // monotone in the true distance
		} else {
			for j := range dist {
				dist[j] = linalg.Minkowski(q, rows[j*dim:(j+1)*dim], p)
			}
		}
		for j, d := range dist {
			if len(top) == kg && d >= worst {
				continue
			}
			pos := len(top)
			if pos < kg {
				top = append(top, ml.Candidate{})
			} else {
				pos--
			}
			for pos > 0 && top[pos-1].Dist > d {
				top[pos] = top[pos-1]
				pos--
			}
			top[pos] = ml.Candidate{ID: lo + j, Dist: d}
			worst = top[len(top)-1].Dist
		}
	}
	return top
}

// vote consumes k votes walking the groups from nearest to farthest;
// within a group (equidistant duplicates) majority label first. It is
// shared by the brute-force and index search paths so both vote under
// identical semantics.
func (c *Classifier) vote(top []ml.Candidate, k int) job.Label {
	var votes [2]int
	remaining := k
	for _, nb := range top {
		if remaining <= 0 {
			break
		}
		cnt := c.counts[nb.ID]
		maj, min := 0, 1
		if cnt[1] > cnt[0] {
			maj, min = 1, 0
		}
		take := int(cnt[maj])
		if take > remaining {
			take = remaining
		}
		votes[maj] += take
		remaining -= take
		take = int(cnt[min])
		if take > remaining {
			take = remaining
		}
		votes[min] += take
		remaining -= take
	}
	if votes[1] > votes[0] {
		return job.ComputeBound
	}
	if votes[0] > votes[1] {
		return job.MemoryBound
	}
	// Exact tie: side with the nearest group's majority.
	cnt := c.counts[top[0].ID]
	if cnt[1] > cnt[0] {
		return job.ComputeBound
	}
	return job.MemoryBound
}

// IndexInfo implements ml.Indexed: a snapshot of the live search
// structure (served on GET /v1/model).
func (c *Classifier) IndexInfo() ml.IndexInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index == nil {
		return ml.IndexInfo{}
	}
	return ml.IndexInfo{
		Enabled:  true,
		Kind:     "ivf",
		Indexed:  c.index.Len(),
		Clusters: c.index.Clusters(),
		NProbe:   c.index.NProbe(),
	}
}

// SetNProbe implements ml.Indexed: it adjusts the live index's
// accuracy/latency knob without retraining. No-op on brute-force models.
// It waits out a WriteTo, whose two passes must read one probe width.
func (c *Classifier) SetNProbe(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index != nil {
		c.index.SetNProbe(n)
	}
}

// Matrix exposes the trained group matrix (rows×dim, row-major) for
// benchmarks and recall measurement. Callers must treat it as read-only.
func (c *Classifier) Matrix() ([]float32, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.data, c.dim
}

// VectorIndex returns the model's search structure, or nil when Predict
// runs the exact scan.
func (c *Classifier) VectorIndex() ml.VectorIndex {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index == nil {
		return nil
	}
	return c.index
}

// hashVec hashes a vector's raw bits (FNV-1a over the float32 words).
func hashVec(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range v {
		b := math.Float32bits(f)
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func equalVec(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

const marshalMagic = "MCBKNN03" // crc32 + header + matrix + counts [+ index section]

// ErrCorruptModel is wrapped by UnmarshalBinary on every reject path —
// bad magic, adversarial headers, truncation, checksum mismatch, or a
// structurally invalid index section.
var ErrCorruptModel = errors.New("knn: corrupt model")

// Sanity caps for deserialized headers. Each field is bounded BEFORE
// any multiplication so adversarial values cannot overflow int64 into a
// small (or negative) allocation size: groups·dim·4 ≤ 2^28·2^16·4 = 2^46.
const (
	maxDim    = 1 << 16
	maxGroups = 1 << 28
	maxK      = 1 << 20
	maxN      = 1 << 40
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64), matching the WAL's frame checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MarshalBinary serializes the trained model (encoding.BinaryMarshaler),
// playing the role of the paper's skops model files. The MCBKNN03
// layout prefixes a crc32 over everything after the checksum field;
// indexed models append the IVF section after the counts. It fills one
// buffer sized for the model; WriteTo streams the same bytes.
func (c *Classifier) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	size := len(marshalMagic) + 4 + 5*8 + 4*len(c.data) + 8*len(c.counts)
	if c.index != nil {
		size += c.index.EncodedLen()
	}
	buf := make([]byte, len(marshalMagic)+4, size)
	copy(buf, marshalMagic)
	buf = c.appendPayload(buf, nil)
	payload := len(marshalMagic) + 4
	binary.LittleEndian.PutUint32(buf[len(marshalMagic):payload], crc32.Checksum(buf[payload:], crcTable))
	return buf, nil
}

// WriteTo implements io.WriterTo: it writes the bytes of MarshalBinary
// without holding them. The checksum comes first in the file, so the
// payload is encoded twice: once into the checksum, once to w, each
// through one buffer of about ml.SpillBytes.
func (c *Classifier) WriteTo(w io.Writer) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum uint32
	crc := func(b []byte) []byte {
		sum = crc32.Update(sum, crcTable, b)
		return b[:0]
	}
	crc(c.appendPayload(make([]byte, 0, 2*ml.SpillBytes), crc))
	return ml.StreamTo(w, func(b []byte, spill func([]byte) []byte) []byte {
		b = binary.LittleEndian.AppendUint32(append(b, marshalMagic...), sum)
		return c.appendPayload(b, spill)
	})
}

// appendPayload appends what the checksum covers — header, matrix,
// counts and index section — to b, through spill (ml.Spill).
func (c *Classifier) appendPayload(b []byte, spill func([]byte) []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(c.cfg.K))
	b = le.AppendUint64(b, math.Float64bits(c.cfg.P))
	b = le.AppendUint64(b, uint64(c.dim))
	b = le.AppendUint64(b, uint64(c.n))
	b = le.AppendUint64(b, uint64(c.groups))
	for r := 0; r < c.groups; r++ {
		b = ml.Spill(ml.AppendFloat32s(b, c.data[r*c.dim:(r+1)*c.dim]), spill)
	}
	for _, ct := range c.counts {
		b = le.AppendUint32(b, uint32(ct[0]))
		b = ml.Spill(le.AppendUint32(b, uint32(ct[1])), spill)
	}
	if c.index != nil {
		b = c.index.AppendStream(b, spill)
	}
	return b
}

// UnmarshalBinary restores a model serialized by MarshalBinary. Every
// reject path returns an error wrapping ErrCorruptModel; adversarial
// input must never panic or allocate unboundedly.
func (c *Classifier) UnmarshalBinary(b []byte) error {
	if len(b) < len(marshalMagic) {
		return fmt.Errorf("%w: short header", ErrCorruptModel)
	}
	if string(b[:len(marshalMagic)]) != marshalMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptModel)
	}
	rest := b[len(marshalMagic):]
	if len(rest) < 4 {
		return fmt.Errorf("%w: missing checksum", ErrCorruptModel)
	}
	want := binary.LittleEndian.Uint32(rest[:4])
	b = rest[4:]
	if crc32.Checksum(b, crcTable) != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorruptModel)
	}

	buf := bytes.NewReader(b)
	var k, dim, n, groups int64
	var p float64
	r := func(v any) error { return binary.Read(buf, binary.LittleEndian, v) }
	for _, v := range []any{&k, &p, &dim, &n, &groups} {
		if err := r(v); err != nil {
			return fmt.Errorf("%w: truncated header", ErrCorruptModel)
		}
	}
	switch {
	case k <= 0 || k > maxK:
		return fmt.Errorf("%w: k = %d", ErrCorruptModel, k)
	case math.IsNaN(p) || math.IsInf(p, 0) || p <= 0:
		return fmt.Errorf("%w: minkowski order %v", ErrCorruptModel, p)
	case dim <= 0 || dim > maxDim:
		return fmt.Errorf("%w: dim = %d", ErrCorruptModel, dim)
	case groups <= 0 || groups > maxGroups: // an empty model would load as trained and never predict
		return fmt.Errorf("%w: groups = %d", ErrCorruptModel, groups)
	case n < groups || n > maxN:
		return fmt.Errorf("%w: n = %d for %d groups", ErrCorruptModel, n, groups)
	}
	// All factors are individually capped above, so this fits in int64.
	if need := groups*dim*4 + groups*8; need > int64(buf.Len()) {
		return fmt.Errorf("%w: %d groups × %d dims exceed %d payload bytes",
			ErrCorruptModel, groups, dim, buf.Len())
	}
	data := make([]float32, groups*dim)
	if err := r(data); err != nil {
		return fmt.Errorf("%w: truncated matrix", ErrCorruptModel)
	}
	flat := make([]int32, 2*groups)
	if err := r(flat); err != nil {
		return fmt.Errorf("%w: truncated counts", ErrCorruptModel)
	}
	counts := make([][2]int32, groups)
	var total int64
	for i := range counts {
		if flat[2*i] < 0 || flat[2*i+1] < 0 {
			return fmt.Errorf("%w: negative vote count", ErrCorruptModel)
		}
		counts[i] = [2]int32{flat[2*i], flat[2*i+1]}
		total += int64(flat[2*i]) + int64(flat[2*i+1])
	}
	if total != n {
		return fmt.Errorf("%w: counts sum to %d, header says %d", ErrCorruptModel, total, n)
	}

	// Whatever follows the counts is the index section.
	var index *ivf.Index
	if buf.Len() != 0 {
		// Train builds an index for the Euclidean metric only, and
		// predictOne would search this one whatever p says.
		if p != 2 {
			return fmt.Errorf("%w: index section on a model of minkowski order %v", ErrCorruptModel, p)
		}
		var err error
		if index, err = ivf.Load(buf, data, int(dim)); err != nil {
			return fmt.Errorf("%w: %w", ErrCorruptModel, err)
		}
	}
	if buf.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptModel, buf.Len())
	}

	c.mu.Lock()
	c.cfg.K, c.cfg.P = int(k), p
	c.dim, c.n, c.groups, c.data, c.counts = int(dim), int(n), int(groups), data, counts
	c.index = index
	c.mu.Unlock()
	return nil
}
