// Package crashfs is a seeded, in-memory wal.FS for the
// crash-consistency suite — the storage-layer sibling of
// internal/fetch/chaos. It models the two failure mechanics a real disk
// stack exposes:
//
//   - the volatile page cache: bytes written but not fsynced may or may
//     not survive a crash, and may survive only partially (a torn
//     write), with bit flips in the torn region;
//   - process death at an arbitrary byte offset: once the configured
//     write budget is exhausted, the write in flight is applied
//     partially and every subsequent operation fails with ErrKilled,
//     exactly as if the process image disappeared mid-syscall.
//
// All randomness is drawn from a seeded stats.RNG, so a given seed
// reproduces the exact same kill point, torn-tail length and flipped
// bits on every run.
package crashfs

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mcbound/internal/stats"
	"mcbound/internal/wal"
)

// ErrKilled is returned by every operation after the write budget runs
// out (the simulated process death).
var ErrKilled = errors.New("crashfs: process killed")

type memFile struct {
	content []byte
	durable int // prefix length guaranteed by fsync
}

// FS implements wal.FS in memory with crash semantics.
type FS struct {
	mu      sync.Mutex
	rng     *stats.RNG
	files   map[string]*memFile // volatile namespace (what the live process sees)
	synced  map[string]*memFile // durable namespace (what survives a crash)
	dirs    map[string]bool
	written int64 // cumulative bytes written, for kill points
	budget  int64 // kill after this many bytes; < 0 means disarmed
	killed  bool
	// FlipRate is the per-crash probability that the torn tail of a file
	// gets one of its bits flipped (default 0.5).
	FlipRate float64
}

// New returns an empty crash FS drawing from the given seed.
func New(seed uint64) *FS {
	return &FS{
		rng:      stats.NewRNG(seed),
		files:    make(map[string]*memFile),
		synced:   make(map[string]*memFile),
		dirs:     make(map[string]bool),
		budget:   -1,
		FlipRate: 0.5,
	}
}

// KillAfterBytes arms the kill switch: the n+1-th written byte dies
// mid-syscall. Pass a value drawn from a seeded RNG to sweep kill
// points.
func (f *FS) KillAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = f.written + n
	f.killed = false
}

// Killed reports whether the simulated process has died.
func (f *FS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// Crash simulates power loss: the volatile namespace collapses to the
// durable one, and every file keeps its fsynced prefix plus a random
// portion of its unsynced tail — possibly with a flipped bit, the way a
// half-written sector reads back. The kill switch resets so the
// "restarted process" can reopen the log.
func (f *FS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files = make(map[string]*memFile, len(f.synced))
	for name, mf := range f.synced {
		tail := len(mf.content) - mf.durable
		keep := 0
		if tail > 0 {
			keep = f.rng.Intn(tail + 1)
		}
		content := append([]byte(nil), mf.content[:mf.durable+keep]...)
		if keep > 0 && f.rng.Bool(f.FlipRate) {
			i := mf.durable + f.rng.Intn(keep)
			content[i] ^= 1 << uint(f.rng.Intn(8))
		}
		nf := &memFile{content: content, durable: len(content)}
		f.files[name] = nf
		f.synced[name] = nf
	}
	f.budget = -1
	f.killed = false
}

// FlipDurableTail corrupts one bit in the last n bytes of a durable
// file, modeling bit rot that fsync cannot protect against. It reports
// whether a flip happened (the file must exist and be non-empty).
func (f *FS) FlipDurableTail(name string, n int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf, ok := f.files[name]
	if !ok || len(mf.content) == 0 {
		return false
	}
	if n <= 0 || n > len(mf.content) {
		n = len(mf.content)
	}
	i := len(mf.content) - 1 - f.rng.Intn(n)
	mf.content[i] ^= 1 << uint(f.rng.Intn(8))
	return true
}

func (f *FS) checkAlive() error {
	if f.killed {
		return ErrKilled
	}
	return nil
}

// Create implements wal.FS.
func (f *FS) Create(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	mf := &memFile{}
	f.files[name] = mf
	return &handle{fs: f, name: name, mf: mf}, nil
}

// ReadAt implements wal.FS.
func (f *FS) ReadAt(name string, p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return 0, err
	}
	mf, ok := f.files[name]
	if !ok {
		return 0, fmt.Errorf("crashfs: %s: file does not exist", name)
	}
	if off < 0 {
		return 0, fmt.Errorf("crashfs: read %s at %d: negative offset", name, off)
	}
	n := 0
	if off < int64(len(mf.content)) {
		n = copy(p, mf.content[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Rename implements wal.FS. The new name becomes durable only after
// SyncDir, like a real directory entry.
func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	mf, ok := f.files[oldname]
	if !ok {
		return fmt.Errorf("crashfs: rename %s: file does not exist", oldname)
	}
	delete(f.files, oldname)
	f.files[newname] = mf
	return nil
}

// Remove implements wal.FS.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	if _, ok := f.files[name]; !ok {
		return fmt.Errorf("crashfs: remove %s: file does not exist", name)
	}
	delete(f.files, name)
	return nil
}

// Truncate implements wal.FS.
func (f *FS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	mf, ok := f.files[name]
	if !ok {
		return fmt.Errorf("crashfs: truncate %s: file does not exist", name)
	}
	if size < 0 || size > int64(len(mf.content)) {
		return fmt.Errorf("crashfs: truncate %s to %d: out of range", name, size)
	}
	mf.content = mf.content[:size]
	if mf.durable > int(size) {
		mf.durable = int(size)
	}
	return nil
}

// Stat implements wal.FS.
func (f *FS) Stat(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return 0, err
	}
	mf, ok := f.files[name]
	if !ok {
		return 0, fmt.Errorf("crashfs: stat %s: file does not exist", name)
	}
	return int64(len(mf.content)), nil
}

// ReadDir implements wal.FS.
func (f *FS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	if !f.dirs[filepath.Clean(dir)] {
		return nil, fmt.Errorf("crashfs: readdir %s: directory does not exist", dir)
	}
	var names []string
	for name := range f.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements wal.FS. Directory creation is treated as
// immediately durable; entry durability is what SyncDir governs.
func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	for dir != "." && dir != string(filepath.Separator) {
		f.dirs[dir] = true
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return nil
}

// SyncDir implements wal.FS: the directory's current entries become the
// durable namespace for that directory. Files created or renamed but
// not dir-fsynced vanish on Crash.
func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	for name := range f.synced {
		if filepath.Dir(name) == dir {
			if _, ok := f.files[name]; !ok {
				delete(f.synced, name)
			}
		}
	}
	for name, mf := range f.files {
		if filepath.Dir(name) == dir {
			f.synced[name] = mf
		}
	}
	return nil
}

// DurableNames lists the files that would survive a crash right now
// (diagnostic for tests).
func (f *FS) DurableNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.synced))
	for name := range f.synced {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handle is the wal.File over a memFile.
type handle struct {
	fs     *FS
	name   string
	mf     *memFile
	closed bool
}

// Write appends to the file's volatile content, honoring the kill
// budget: the write that crosses it is applied partially and returns
// ErrKilled, like a process dying inside the syscall.
func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.checkAlive(); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, fmt.Errorf("crashfs: write to closed file %s", h.name)
	}
	n := len(p)
	if h.fs.budget >= 0 && h.fs.written+int64(n) > h.fs.budget {
		n = int(h.fs.budget - h.fs.written)
		if n < 0 {
			n = 0
		}
		h.mf.content = append(h.mf.content, p[:n]...)
		h.fs.written += int64(n)
		h.fs.killed = true
		return n, ErrKilled
	}
	h.mf.content = append(h.mf.content, p...)
	h.fs.written += int64(n)
	return n, nil
}

// Sync marks every written byte durable.
func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.checkAlive(); err != nil {
		return err
	}
	if h.closed {
		return fmt.Errorf("crashfs: sync of closed file %s", h.name)
	}
	h.mf.durable = len(h.mf.content)
	return nil
}

// Close implements wal.File.
func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// String helps test failure messages.
func (f *FS) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mf := f.files[n]
		fmt.Fprintf(&b, "%s: %d bytes (%d durable)\n", n, len(mf.content), mf.durable)
	}
	return b.String()
}
