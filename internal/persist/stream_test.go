package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
	"mcbound/internal/stats"
)

// goldenWindow is a fixed seeded training set: 4 000 rows over 1 500
// distinct sparse vectors of width 24, so rows share vectors the way a
// window's batch submissions do, with random labels.
func goldenWindow() ([][]float32, []job.Label) {
	rng := stats.NewRNG(55)
	vecs := make([][]float32, 1500)
	for i := range vecs {
		v := make([]float32, 24)
		for d := range v {
			if rng.Intn(4) == 0 {
				v[d] = float32(rng.Float64()*2 - 1)
			}
		}
		vecs[i] = v
	}
	x := make([][]float32, 4000)
	y := make([]job.Label, len(x))
	for i := range x {
		x[i] = vecs[rng.Intn(len(vecs))]
		y[i] = job.MemoryBound
		if rng.Intn(3) == 0 {
			y[i] = job.ComputeBound
		}
	}
	return x, y
}

// TestSavedModelBytesUnchanged pins the files Save writes for a KNN with
// its index on and for a forest, both fitted on goldenWindow. The hashes
// were recorded before Save streamed a model to disk instead of
// marshalling it into one buffer: the on-disk format must not move.
func TestSavedModelBytesUnchanged(t *testing.T) {
	x, y := goldenWindow()
	kc := knn.New(knn.Config{K: 5, Index: knn.IndexConfig{Mode: knn.IndexOn, NClusters: 8, Seed: 3}})
	if err := kc.Train(x, y); err != nil {
		t.Fatal(err)
	}
	fc := rf.New(rf.Config{NumTrees: 8, Seed: 3})
	if err := fc.Train(x, y); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    Model
		want string
	}{
		{"knn", kc, "3d7914f980ec532f4750f768203e0c55a052371bd1ecac5eb52aceffb480b4c2"},
		{"rf", fc, "3aba316496556cb57d455f60d0210e3aa9d4bf44fc15ca831a3375da6d0415b1"},
	} {
		v, err := reg.Save(tc.name, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(reg.path(tc.name, v))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: saved file (%d bytes) hashes to %s, want %s", tc.name, len(b), got, tc.want)
		}
	}
}

// chunkWriter records the size of each Write it is handed.
type chunkWriter struct {
	bytes.Buffer
	largest int
}

func (w *chunkWriter) Write(b []byte) (int, error) {
	w.largest = max(w.largest, len(b))
	return w.Buffer.Write(b)
}

// checkWriteTo fails unless m's WriteTo writes the bytes of its
// MarshalBinary, in writes no larger than the bounded buffer's.
func checkWriteTo(t testing.TB, name string, m Model) {
	t.Helper()
	want, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	n, err := m.WriteTo(&w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) || n != int64(len(want)) {
		t.Fatalf("%s: WriteTo wrote %d bytes (reported %d) that differ from MarshalBinary's %d", name, w.Len(), n, len(want))
	}
	if w.largest > 2*ml.SpillBytes {
		t.Fatalf("%s: a write of %d bytes, past the %d-byte buffer", name, w.largest, 2*ml.SpillBytes)
	}
}

// TestWriteToMatchesMarshalBinary: a KNN with its index on, one with it
// off, and a forest, each fitted on goldenWindow, larger than one
// buffer of the stream.
func TestWriteToMatchesMarshalBinary(t *testing.T) {
	x, y := goldenWindow()
	for _, mode := range []knn.IndexMode{knn.IndexOn, knn.IndexOff} {
		c := knn.New(knn.Config{K: 5, Index: knn.IndexConfig{Mode: mode, NClusters: 8, Seed: 3}})
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		checkWriteTo(t, "knn index "+string(mode), c)
	}
	f := rf.New(rf.Config{NumTrees: 8, Seed: 3})
	if err := f.Train(x, y); err != nil {
		t.Fatal(err)
	}
	checkWriteTo(t, "rf", f)
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteToReportsAWriteError: WriteTo stops counting at the first
// failed write and returns its error.
func TestWriteToReportsAWriteError(t *testing.T) {
	x, y := goldenWindow()
	c := knn.New(knn.DefaultConfig())
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if n, err := c.WriteTo(failingWriter{}); err == nil || n != 0 {
		t.Fatalf("WriteTo into a failing writer: %d bytes, error %v", n, err)
	}
}

// FuzzWriteToMatchesMarshalBinary holds WriteTo to MarshalBinary for
// small random KNN (index on or off) and forest fits: vectors from a
// few levels, so some rows are equal, and up to about 200 KB of model,
// so the stream spills.
func FuzzWriteToMatchesMarshalBinary(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(4), uint8(1), false)
	f.Add(uint64(2), uint8(255), uint8(47), uint8(9), uint8(3), true)
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, levels, trees uint8, indexed bool) {
		rows, d, values := 1+4*int(n), 1+int(dim)%48, 1+int(levels)%16
		rng := stats.NewRNG(seed)
		x := make([][]float32, rows)
		y := make([]job.Label, rows)
		for i := range x {
			x[i] = make([]float32, d)
			for j := range x[i] {
				x[i][j] = float32(rng.Intn(values)) / float32(values)
			}
			y[i] = job.Label(1 + rng.Intn(2))
		}
		cfg := knn.Config{K: 3, Index: knn.IndexConfig{Mode: knn.IndexOff}}
		if indexed {
			cfg.Index = knn.IndexConfig{Mode: knn.IndexOn, NClusters: 4, Seed: seed}
		}
		c := knn.New(cfg)
		if err := c.Train(x, y); err != nil {
			t.Fatal(err)
		}
		checkWriteTo(t, "knn", c)
		fc := rf.New(rf.Config{NumTrees: 1 + int(trees)%4, Seed: seed})
		if err := fc.Train(x, y); err != nil {
			t.Fatal(err)
		}
		checkWriteTo(t, "rf", fc)
	})
}
