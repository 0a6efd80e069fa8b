package persist

import (
	"encoding"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/ml/knn"
	"mcbound/internal/ml/rf"
)

func trainedKNN(t *testing.T) *knn.Classifier {
	t.Helper()
	c := knn.New(knn.DefaultConfig())
	x := [][]float32{{0, 0}, {1, 1}}
	y := []job.Label{job.MemoryBound, job.ComputeBound}
	if err := c.Train(x, y); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSaveLoadVersions(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := trainedKNN(t)
	v1, err := reg.Save("knn", m)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Save("knn", m)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Errorf("versions = %d, %d", v1, v2)
	}
	versions, err := reg.Versions("knn")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Errorf("Versions = %v", versions)
	}
	loaded, v, _, err := reg.LoadLatestValid("knn", freshKNN)
	if err != nil {
		t.Fatal(err)
	}
	if restored := loaded.(*knn.Classifier); v != 2 || restored.TrainSize() != 2 {
		t.Errorf("loaded v%d, train size %d", v, restored.TrainSize())
	}
}

func TestLoadSpecificVersion(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("m", trainedKNN(t)); err != nil {
		t.Fatal(err)
	}
	restored := knn.New(knn.DefaultConfig())
	if err := reg.Load("m", 1, restored); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("m", 9, restored); err == nil {
		t.Error("loaded a version that does not exist")
	}
}

func TestPrune(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := trainedKNN(t)
	for i := 0; i < 5; i++ {
		if _, err := reg.Save("knn", m); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Prune("knn", 2); err != nil {
		t.Fatal(err)
	}
	versions, err := reg.Versions("knn")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 4 || versions[1] != 5 {
		t.Errorf("after prune: %v", versions)
	}
	// Next save continues the sequence.
	v, err := reg.Save("knn", m)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("post-prune version = %d, want 6", v)
	}
}

func TestInvalidNames(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", "a b", "a\tb"} {
		if _, err := reg.Save(name, trainedKNN(t)); err == nil {
			t.Errorf("accepted name %q", name)
		}
	}
}

func TestDifferentModelTypesCoexist(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("knn", trainedKNN(t)); err != nil {
		t.Fatal(err)
	}
	forest := rf.New(rf.Config{NumTrees: 3})
	x := [][]float32{{0, 0}, {1, 1}, {0.2, 0.1}, {0.9, 0.8}}
	y := []job.Label{job.MemoryBound, job.ComputeBound, job.MemoryBound, job.ComputeBound}
	if err := forest.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("rf", forest); err != nil {
		t.Fatal(err)
	}
	// Loading the wrong type must fail on the magic header.
	wrong := knn.New(knn.DefaultConfig())
	if err := reg.Load("rf", 1, wrong); err == nil {
		t.Error("KNN loader accepted an RF model file")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".model" {
			t.Errorf("stray file %s", e.Name())
		}
	}
}

func freshKNN() (encoding.BinaryUnmarshaler, error) {
	return knn.New(knn.DefaultConfig()), nil
}

func TestLoadLatestValidSkipsCorrupted(t *testing.T) {
	// v1 is healthy; v2 is truncated mid-write; v3 is garbage. The
	// crash-recovery path must quarantine v3 and v2 and load v1.
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("knn", trainedKNN(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("knn", trainedKNN(t)); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "knn-v2.model"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "knn-v2.model"), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "knn-v3.model"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, v, quarantined, err := reg.LoadLatestValid("knn", freshKNN)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("loaded v%d, want the last good v1", v)
	}
	if len(quarantined) != 2 || quarantined[0] != 3 || quarantined[1] != 2 {
		t.Errorf("quarantined = %v, want [3 2] (newest first)", quarantined)
	}
	if m.(*knn.Classifier).TrainSize() != 2 {
		t.Errorf("restored model train size = %d", m.(*knn.Classifier).TrainSize())
	}
	// Quarantined files are left in place for the operator.
	for _, v := range []int{2, 3} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("knn-v%d.model", v))); err != nil {
			t.Errorf("quarantined v%d was deleted: %v", v, err)
		}
	}
}

func TestLoadLatestValidAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"knn-v1.model", "knn-v2.model"} {
		if err := os.WriteFile(filepath.Join(dir, fn), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, quarantined, err := reg.LoadLatestValid("knn", freshKNN)
	if !errors.Is(err, ErrNoValidVersion) {
		t.Errorf("all-corrupt registry: err = %v, want ErrNoValidVersion", err)
	}
	if len(quarantined) != 2 {
		t.Errorf("quarantined = %v, want both versions", quarantined)
	}
}

func TestLoadLatestValidEmpty(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reg.LoadLatestValid("never-saved", freshKNN); !errors.Is(err, ErrNoValidVersion) {
		t.Errorf("empty registry: err = %v, want ErrNoValidVersion", err)
	}
}

func TestVersionsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"knn-vx.model", "knn-v0.model", "other.txt", "knn-v2.notmodel"} {
		if err := os.WriteFile(filepath.Join(dir, fn), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	versions, err := reg.Versions("knn")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 0 {
		t.Errorf("foreign files counted as versions: %v", versions)
	}
}

func TestLoadLatestValidNonexistentDir(t *testing.T) {
	// A -model-dir that disappears after startup (or was never created)
	// must look like an empty registry, not a filesystem error or panic.
	dir := filepath.Join(t.TempDir(), "models")
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	m, v, quarantined, err := reg.LoadLatestValid("knn", freshKNN)
	if !errors.Is(err, ErrNoValidVersion) {
		t.Errorf("missing dir: err = %v, want ErrNoValidVersion", err)
	}
	if m != nil || v != 0 || len(quarantined) != 0 {
		t.Errorf("missing dir: got model=%v version=%d quarantined=%v, want none", m, v, quarantined)
	}
	versions, err := reg.Versions("knn")
	if err != nil || len(versions) != 0 {
		t.Errorf("Versions on missing dir = %v, %v; want empty, nil", versions, err)
	}
}

func TestLoadLatestValidOnlyForeignFiles(t *testing.T) {
	// A directory holding only files the registry doesn't recognize has
	// no versions to offer: ErrNoValidVersion, nothing quarantined.
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"README.txt", "knn-v1.model.tmp-123", "rf-v1.model"} {
		if err := os.WriteFile(filepath.Join(dir, fn), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, quarantined, err := reg.LoadLatestValid("knn", freshKNN)
	if !errors.Is(err, ErrNoValidVersion) {
		t.Errorf("foreign-only dir: err = %v, want ErrNoValidVersion", err)
	}
	if len(quarantined) != 0 {
		t.Errorf("quarantined = %v, want none (nothing was a knn version)", quarantined)
	}
}
