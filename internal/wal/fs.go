package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the slice of filesystem behavior the WAL needs. Production code
// uses OS; the crash-consistency suite substitutes a seeded in-memory
// implementation that models the volatile page cache (writes are lost on
// a simulated kill unless Sync made them durable) and injects torn
// writes and bit flips.
type FS interface {
	// Create opens name for writing, truncating any previous content.
	Create(name string) (File, error)
	// ReadAt reads len(p) bytes of name starting at byte off, with
	// io.ReaderAt's contract: fewer bytes come back only with an error,
	// io.EOF when the file ends first.
	ReadAt(name string, p []byte, off int64) (int, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name down to size bytes (the torn-tail repair).
	Truncate(name string, size int64) error
	// ReadDir lists the base names inside dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Stat returns the current size of name in bytes.
	Stat(name string) (int64, error)
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself so renames and creates inside
	// it survive a crash.
	SyncDir(dir string) error
}

// File is the writable handle Create returns.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OS is the real-filesystem implementation of FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is advisory on some filesystems; a failure there
	// must not fail the write that already reached the file.
	_ = d.Sync()
	return d.Close()
}

// readFile returns the full content of name: the size Stat reports, read
// in one ReadAt. A file that shrank in between comes back short.
func readFile(fsys FS, name string) ([]byte, error) {
	size, err := fsys.Stat(name)
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	n, err := fsys.ReadAt(name, data, 0)
	if err == io.EOF {
		err = nil
	}
	return data[:n], err
}

// WriteFileAtomic writes data to path with the crash-safe discipline:
// temp file in the same directory, fsync the file, rename over the
// target, fsync the directory. After a crash the target holds either the
// old content or the new — never a torn mix.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	return WriteStreamAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteStreamAtomic is WriteFileAtomic for streamed content: fill writes
// the payload to the temp file before the fsync+rename+dir-fsync ritual.
func WriteStreamAtomic(fsys FS, path string, fill func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	if err := fill(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: rename %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: fsync dir of %s: %w", path, err)
	}
	return nil
}
