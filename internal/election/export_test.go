package election

// The chaos suite (package election_test) and this package's own tests
// wedge a leader's disk with the one FS below.

import (
	"errors"
	"sync"

	"mcbound/internal/wal"
)

// NewFlakyFS exports the wedging FS to the chaos suite.
var NewFlakyFS = newFlakyFS

// flakyFS wedges a disk after a seeded byte budget: every Write/Sync
// past the budget fails (the WAL latches its sticky error), while reads
// keep serving the durable prefix — a dying disk, not a dead process.
// Depending on where the budget lands, the failure hits mid-group-commit
// (an append frame) or mid-compaction (a snapshot stream).
type flakyFS struct {
	wal.FS
	mu      sync.Mutex
	written int64
	budget  int64 // -1 = healthy
}

func newFlakyFS(inner wal.FS) *flakyFS { return &flakyFS{FS: inner, budget: -1} }

// WedgeAfter arms the failure n bytes from now.
func (f *flakyFS) WedgeAfter(n int64) {
	f.mu.Lock()
	f.budget = f.written + n
	f.mu.Unlock()
}

func (f *flakyFS) charge(n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget >= 0 && f.written >= f.budget {
		return errors.New("flakyfs: disk wedged")
	}
	f.written += n
	return nil
}

func (f *flakyFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{fs: f, File: file}, nil
}

type flakyFile struct {
	fs *flakyFS
	wal.File
}

func (h *flakyFile) Write(p []byte) (int, error) {
	if err := h.fs.charge(int64(len(p))); err != nil {
		return 0, err
	}
	return h.File.Write(p)
}

func (h *flakyFile) Sync() error {
	if err := h.fs.charge(0); err != nil {
		return err
	}
	return h.File.Sync()
}
