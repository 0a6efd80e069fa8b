package wal

import (
	"errors"
	"sync/atomic"
	"testing"
)

// wedgeFS wraps OS and, once armed, fails every file write/fsync — the
// "disk died under a running leader" shape without crashfs (which lives
// in a subpackage that imports wal).
type wedgeFS struct {
	FS
	armed atomic.Bool
}

func (f *wedgeFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &wedgeFile{File: file, fs: f}, nil
}

type wedgeFile struct {
	File
	fs *wedgeFS
}

func (wf *wedgeFile) Write(p []byte) (int, error) {
	if wf.fs.armed.Load() {
		return 0, errors.New("wedgefs: write fault")
	}
	return wf.File.Write(p)
}

func (wf *wedgeFile) Sync() error {
	if wf.fs.armed.Load() {
		return errors.New("wedgefs: fsync fault")
	}
	return wf.File.Sync()
}

func TestWALErrReportsStickyFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := &wedgeFS{FS: OS}
	w, _, err := Open(dir, Options{FS: fsys}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := commit(w, []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("healthy WAL Err() = %v, want nil", err)
	}
	fsys.armed.Store(true)
	if err := commit(w, []byte("doomed")); err == nil {
		t.Fatal("append over a dead disk acknowledged")
	}
	if err := w.Err(); err == nil {
		t.Fatal("sticky failure not surfaced through Err()")
	}
	// The manifest must keep serving the durable prefix of a wedged log —
	// that is what lets a follower drain before taking over.
	m, err := w.Manifest()
	if err != nil {
		t.Fatalf("manifest on wedged WAL: %v", err)
	}
	if m.CommittedSeq != 1 {
		t.Fatalf("wedged manifest CommittedSeq = %d, want 1", m.CommittedSeq)
	}
}
