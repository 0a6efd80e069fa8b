// Package persist saves and loads trained Classification Model instances
// to the file system with version bookkeeping — the role skops.io plays
// in the paper's deployment: every Training Workflow trigger produces a
// new model version, and the serving layer always loads the latest one.
package persist

import (
	"encoding"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcbound/internal/wal"
)

// Model is what a saved object must implement: the binary round-trip
// contract, and WriteTo, which Save streams a model to disk through and
// which must write the bytes of MarshalBinary. Both knn.Classifier and
// rf.Classifier satisfy it.
type Model interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	io.WriterTo
}

// Registry manages versioned model files under a directory. File layout:
// <dir>/<name>-v<version>.model, with version a monotonically increasing
// integer.
type Registry struct {
	dir string
}

// NewRegistry opens (creating if needed) a model registry rooted at dir.
func NewRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// Dir returns the registry root.
func (r *Registry) Dir() string { return r.dir }

// Save writes a new version of the named model and returns its version
// number. The model streams itself into the file (WriteTo), so the
// whole of its bytes is never held at once. The write is atomic (temp
// file + rename).
func (r *Registry) Save(name string, m io.WriterTo) (int, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	versions, err := r.Versions(name)
	if err != nil {
		return 0, err
	}
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	final := r.path(name, next)
	// Crash-safe publish: temp file, fsync, rename, directory fsync —
	// so a model version either exists completely or not at all, and
	// the rename survives power loss.
	if err := wal.WriteStreamAtomic(wal.OS, final, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	}); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	return next, nil
}

// ErrNoValidVersion is wrapped by LoadLatestValid when a model has no
// loadable version at all (none stored, or every file corrupted).
var ErrNoValidVersion = errors.New("persist: no valid model version")

// LoadLatestValid walks the stored versions newest-first, skipping any
// file that cannot be read or unmarshaled (corrupted or truncated
// writes, e.g. after a crash mid-rename), and returns the newest good
// model. fresh must return a brand-new instance per call so a partial
// unmarshal of a bad file can never leak state into the loaded model.
// quarantined lists the skipped versions (newest first) so the operator
// learns which files need attention; the files are left in place.
func (r *Registry) LoadLatestValid(name string, fresh func() (encoding.BinaryUnmarshaler, error)) (m encoding.BinaryUnmarshaler, version int, quarantined []int, err error) {
	versions, err := r.Versions(name)
	if err != nil {
		return nil, 0, nil, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		v := versions[i]
		m, err := fresh()
		if err != nil {
			return nil, 0, quarantined, err
		}
		if lerr := r.Load(name, v, m); lerr != nil {
			quarantined = append(quarantined, v)
			continue
		}
		return m, v, quarantined, nil
	}
	if len(versions) == 0 {
		return nil, 0, nil, fmt.Errorf("%w: no saved versions of %q", ErrNoValidVersion, name)
	}
	return nil, 0, quarantined, fmt.Errorf("%w: all %d stored versions of %q are corrupted", ErrNoValidVersion, len(versions), name)
}

// LoadLatest reads the highest version of the named model into m and
// returns the loaded version.
func (r *Registry) LoadLatest(name string, m encoding.BinaryUnmarshaler) (int, error) {
	versions, err := r.Versions(name)
	if err != nil {
		return 0, err
	}
	if len(versions) == 0 {
		return 0, fmt.Errorf("persist: no saved versions of %q", name)
	}
	v := versions[len(versions)-1]
	return v, r.Load(name, v, m)
}

// Load reads a specific version of the named model into m.
func (r *Registry) Load(name string, version int, m encoding.BinaryUnmarshaler) error {
	if err := validName(name); err != nil {
		return err
	}
	data, err := os.ReadFile(r.path(name, version))
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := m.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("persist: unmarshal %s v%d: %w", name, version, err)
	}
	return nil
}

// SavedAt reports when a stored version was written: its file's
// modification time, which Save's rename leaves at the write and nothing
// in the registry touches afterwards.
func (r *Registry) SavedAt(name string, version int) (time.Time, error) {
	info, err := os.Stat(r.path(name, version))
	if err != nil {
		return time.Time{}, fmt.Errorf("persist: %w", err)
	}
	return info.ModTime().UTC(), nil
}

// Versions lists the stored versions of a model, ascending.
func (r *Registry) Versions(name string) ([]int, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		// A registry directory that vanished (or was never created —
		// e.g. a Registry handed a raw -model-dir path) simply holds no
		// versions; LoadLatestValid then reports ErrNoValidVersion
		// instead of a filesystem error the caller cannot branch on.
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: %w", err)
	}
	prefix := name + "-v"
	var out []int
	for _, e := range entries {
		fn := e.Name()
		if !strings.HasPrefix(fn, prefix) || !strings.HasSuffix(fn, ".model") {
			continue
		}
		vs := strings.TrimSuffix(strings.TrimPrefix(fn, prefix), ".model")
		v, err := strconv.Atoi(vs)
		if err != nil || v <= 0 {
			continue
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

// Prune deletes all but the newest keep versions of the named model.
func (r *Registry) Prune(name string, keep int) error {
	versions, err := r.Versions(name)
	if err != nil {
		return err
	}
	if keep < 0 {
		keep = 0
	}
	for _, v := range versions[:maxInt(0, len(versions)-keep)] {
		if err := os.Remove(r.path(name, v)); err != nil {
			return fmt.Errorf("persist: prune %s v%d: %w", name, v, err)
		}
	}
	return nil
}

func (r *Registry) path(name string, version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-v%d.model", name, version))
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\ \t\n") {
		return fmt.Errorf("persist: invalid model name %q", name)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
