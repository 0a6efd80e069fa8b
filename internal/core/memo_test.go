package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/job"
	"mcbound/internal/ml"
	"mcbound/internal/ml/knn"
	"mcbound/internal/store"
)

// The serving path notes a label on an embedding-cache entry under the
// snapshot's stamp. These tests hold it to the model: every prediction
// equals the served model's Predict on a cache-off encoder's vectors,
// across every event that changes what the model answers.

// flipStore is seedStore with the two apps' behaviour swapped from
// 16 January on, so a model trained on the first half of the month and
// one trained on the second answer the same strings differently: a label
// noted under one snapshot and served under the other shows.
func flipStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := 0
	for day := 0; day < 31; day++ {
		for i := 0; i < 6; i++ {
			for _, name := range []string{"membound_app", "compbound_app"} {
				perfGF, bwGB := 50.0, 50.0 // op = 1
				if (name == "compbound_app") == (day < 15) {
					perfGF, bwGB = 300, 5 // op = 60
				}
				submit := start.AddDate(0, 0, day)
				err := st.Insert(&job.Job{
					ID: fmt.Sprintf("f%05d", seq), User: "u0001", Name: name, Environment: "gcc/12.2",
					CoresRequested: 48, NodesRequested: 1, NodesAllocated: 1, FreqRequested: job.FreqNormal,
					SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(31 * time.Minute),
					Counters: job.PerfCounters{
						Perf2: perfGF * 1e9 * 1800,
						Perf4: bwGB * 1e9 * 1800 * job.CoresPerCMG / job.CacheLineBytes,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				seq++
			}
		}
	}
	return st
}

var (
	firstHalf  = time.Date(2024, 1, 16, 0, 0, 0, 0, time.UTC) // window 1–16 January
	secondHalf = time.Date(2024, 1, 31, 0, 0, 0, 0, time.UTC) // window 16–31 January
)

// probeModel is a Classifier whose every answer depends on its training
// set: a hash of it and the vector's bits, one of 100 labels. A label
// served from a note taken under another snapshot almost never equals
// it.
type probeModel struct{ seed uint64 }

func newProbeModel() (ml.Classifier, error) { return &probeModel{}, nil }

func (m *probeModel) Train(x [][]float32, y []job.Label) error {
	h := fnv.New64a()
	var b [4]byte
	for i, v := range x {
		for _, c := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(c))
			h.Write(b[:])
		}
		h.Write([]byte{byte(y[i])})
	}
	m.seed = h.Sum64()
	return nil
}

func (m *probeModel) Predict(x [][]float32) ([]job.Label, error) {
	out := make([]job.Label, len(x))
	for i, v := range x {
		out[i] = probeLabel(m.seed, v)
	}
	return out, nil
}

func probeLabel(seed uint64, v []float32) job.Label {
	h := seed
	for _, c := range v {
		h = (h ^ uint64(math.Float32bits(c))) * 1099511628211
	}
	return job.Label(1 + h%100)
}

func (m *probeModel) Name() string { return "probe" }

func (m *probeModel) MarshalBinary() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, m.seed), nil
}

func (m *probeModel) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(binary.LittleEndian.AppendUint64(nil, m.seed))
	return int64(n), err
}

func (m *probeModel) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("probe model: %d bytes", len(b))
	}
	m.seed = binary.LittleEndian.Uint64(b)
	return nil
}

// memoConfigs are the served models the note is held to: RF, KNN with
// its IVF index on, and the probe model, under which every snapshot
// answers differently.
func memoConfigs(t *testing.T) map[string]Config {
	rf := DefaultConfig()
	rf.ModelDir = t.TempDir()
	kn := DefaultConfig()
	kn.ModelDir = t.TempDir()
	kn.Model = ModelKNN
	kn.KNN.Index = knn.IndexConfig{Mode: knn.IndexOn, NClusters: 2, NProbe: 2, Seed: 42}
	pr := DefaultConfig()
	pr.ModelDir = t.TempDir()
	pr.ModelFactory = newProbeModel
	return map[string]Config{"rf": rf, "knn-ivf": kn, "probe": pr}
}

// TestClassifyMatchesModelAcrossSnapshots is the differential test of the
// note: ClassifyJobs on held-out jobs equals the served model's Predict
// over a cache-off encoder's vectors, row for row, at each job's first,
// second and third sighting (embedded; found in the cache, embedded
// again and noted; answered from the note) — after a train, a retrain to another
// window, a LoadLatest that restores the older model, a train with an
// nprobe override and a train back, a capacity of 0 (the entries held
// stay, and keep answering), and a restart: the newest model restored
// under an empty 16-entry cache that evicts inside the batch.
func TestClassifyMatchesModelAcrossSnapshots(t *testing.T) {
	ctx := context.Background()
	held := dupHeavyBatch(300)
	for kind, cfg := range memoConfigs(t) {
		t.Run(kind, func(t *testing.T) {
			src := flipStore(t)
			fw := newFramework(t, cfg, src)
			ref := encode.NewEncoder(cfg.Features, nil)
			ref.SetCacheCapacity(0)
			refVecs := ref.Encode(held)
			check := func(step string) {
				t.Helper()
				st := fw.state.Load()
				want, err := st.model.Predict(refVecs)
				if err != nil {
					t.Fatal(err)
				}
				for sight := 1; sight <= 3; sight++ {
					got, err := fw.ClassifyJobs(ctx, held)
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range got {
						if p.Label != want[i] || p.ModelVersion != st.version {
							t.Fatalf("%s, sight %d: job %d (%s) got %v of v%d, model says %v of v%d",
								step, sight, i, held[i].Name, p.Label, p.ModelVersion, want[i], st.version)
						}
					}
				}
			}
			train := func(now time.Time) {
				t.Helper()
				if _, err := fw.Train(ctx, now); err != nil {
					t.Fatal(err)
				}
			}
			train(firstHalf)
			check("train")
			memo := fw.MemoHits()
			if memo == 0 {
				t.Fatal("no prediction answered from a note")
			}
			train(secondHalf)
			check("retrain to another window")
			if err := os.Remove(filepath.Join(cfg.ModelDir, fw.name+"-v2.model")); err != nil {
				t.Fatal(err)
			}
			if rep, err := fw.LoadLatest(); err != nil || rep.Version != 1 {
				t.Fatalf("LoadLatest: %+v, %v", rep, err)
			}
			check("LoadLatest")
			if err := fw.SetIndexOptions("", 1); err != nil {
				t.Fatal(err)
			}
			train(secondHalf)
			check("train with nprobe 1")
			if err := fw.SetIndexOptions("", 2); err != nil {
				t.Fatal(err)
			}
			train(secondHalf)
			check("train back at nprobe 2")
			fw.Encoder().SetCacheCapacity(0)
			check("capacity 0")
			if fw.MemoHits() == memo {
				t.Error("no note answered after the first train")
			}
			fw = newFramework(t, cfg, src)
			fw.Encoder().SetCacheCapacity(16)
			if _, err := fw.LoadLatest(); err != nil {
				t.Fatal(err)
			}
			check("restart, capacity 16")
			if fw.Encoder().CacheStats().Evictions == 0 {
				t.Error("a 16-entry cache evicted nothing")
			}
		})
	}
}

// TestClassifyNotesExactUnderRace classifies from several goroutines
// while another retrains to alternating windows, with persistence on so
// that model_version names the snapshot: every prediction must be what
// that version's model answers for the job. Run under -race (make check
// does).
func TestClassifyNotesExactUnderRace(t *testing.T) {
	ctx := context.Background()
	st := flipStore(t)
	cfg := DefaultConfig()
	cfg.ModelDir = t.TempDir()
	cfg.ModelFactory = newProbeModel
	fw := newFramework(t, cfg, st)

	// The seed each window trains: a probe model is a function of it.
	seeds := map[time.Time]uint64{}
	for _, now := range []time.Time{firstHalf, secondHalf} {
		ref := newFramework(t, Config{ModelFactory: newProbeModel}, st)
		if _, err := ref.Train(ctx, now); err != nil {
			t.Fatal(err)
		}
		seeds[now] = ref.state.Load().model.(*probeModel).seed
	}
	var (
		mu     sync.Mutex
		window = map[int]time.Time{} // model version → its training window's end
	)
	train := func(now time.Time) error {
		rep, err := fw.Train(ctx, now)
		if err == nil {
			mu.Lock()
			window[rep.ModelVersion] = rep.WindowEnd
			mu.Unlock()
		}
		return err
	}
	if err := train(firstHalf); err != nil {
		t.Fatal(err)
	}
	jobs := dupHeavyBatch(40)
	vecs := encode.NewEncoder(cfg.Features, nil).Encode(jobs)

	type seen struct {
		version int
		row     int
		label   job.Label
	}
	const classifiers = 4
	got := make([][]seen, classifiers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 12; i++ {
			if err := train([]time.Time{secondHalf, firstHalf}[i%2]); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	for c := 0; c < classifiers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < 150; i++ {
				batch, rows := jobs, []int(nil)
				if i%2 == 1 { // a lone submission, the qsub path
					k := (i + c) % len(jobs)
					batch, rows = jobs[k:k+1], []int{k}
				}
				preds, err := fw.ClassifyJobs(ctx, batch)
				if err != nil {
					t.Errorf("classify: %v", err)
					return
				}
				for r, p := range preds {
					row := r
					if rows != nil {
						row = rows[r]
					}
					got[c] = append(got[c], seen{p.ModelVersion, row, p.Label})
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	checked := 0
	for _, ss := range got {
		for _, s := range ss {
			w, ok := window[s.version]
			if !ok {
				t.Fatalf("prediction of unknown version %d", s.version)
			}
			if want := probeLabel(seeds[w], vecs[s.row]); s.label != want {
				t.Fatalf("v%d job %d: got %v, the model answers %v", s.version, s.row, s.label, want)
			}
			checked++
		}
	}
	if fw.MemoHits() == 0 {
		t.Error("no prediction answered from a note")
	}
	t.Logf("%d predictions checked, %d from notes", checked, fw.MemoHits())
}

// TestFirstSightLeavesNoNote is second-sight admission: a never-seen
// name's first classify — alone, or twice in one batch — writes no note;
// its second runs the model again and notes the label, and only the third
// is answered from the note.
func TestFirstSightLeavesNoNote(t *testing.T) {
	ctx := context.Background()
	fw := newFramework(t, DefaultConfig(), seedStore(t))
	if _, err := fw.Train(ctx, time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	stamp := fw.state.Load().stamp
	noted := func(j *job.Job) bool {
		dist, _ := fw.Encoder().EncodeDistinct([]*job.Job{j}, stamp)
		return dist[0].Note != 0
	}
	for n := 1; n <= 2; n++ {
		j := *dupHeavyBatch(1)[0]
		j.Name = fmt.Sprintf("never_seen_%d", n)
		first := make([]*job.Job, n)
		for i := range first {
			first[i] = &j
		}
		memo := fw.MemoHits()
		for sight, classify := range [][]*job.Job{first, {&j}, {&j}} {
			if _, err := fw.ClassifyJobs(ctx, classify); err != nil {
				t.Fatal(err)
			}
			if want := sight >= 1; noted(&j) != want {
				t.Fatalf("%d in the first batch: noted %v after sight %d, want %v", n, !want, sight+1, want)
			}
		}
		if fw.MemoHits() != memo+1 {
			t.Fatalf("%d in the first batch: memo hits %d → %d over three sights, want one more", n, memo, fw.MemoHits())
		}
	}
}

// TestNotedClassifyAllocations is the allocation gate of the qsub path:
// a single-job classify answered from a note allocates 4 times on RF and
// on IVF KNN, where one that embedded its cached string again and ran
// the model takes 9 and 10. The four: the row index, the distinct list, the
// feature string (the cache key, which a miss stores and SetNote finds)
// and the predictions.
func TestNotedClassifyAllocations(t *testing.T) {
	ctx := context.Background()
	one := dupHeavyBatch(1)
	cfgs := memoConfigs(t)
	for _, kind := range []string{"rf", "knn-ivf"} {
		cfg := cfgs[kind]
		cfg.ModelDir = ""
		fw := newFramework(t, cfg, seedStore(t))
		if _, err := fw.Train(ctx, time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // embed, then note
			if _, err := fw.ClassifyJobs(ctx, one); err != nil {
				t.Fatal(err)
			}
		}
		memo := fw.MemoHits()
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := fw.ClassifyJobs(ctx, one); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: a noted single-job classify allocates %.0f times, budget 4", kind, allocs)
		}
		if fw.MemoHits() <= memo {
			t.Errorf("%s: the measured classifies were not answered from the note", kind)
		}
	}
}

// TestNotedWindowAllocatesNoVectors: a 1 000-job window whose strings
// are all noted allocates fewer bytes than its distinct vectors alone
// would take, where the same window embedding its strings again
// allocates at least that — the vectors are not cut at all.
func TestNotedWindowAllocatesNoVectors(t *testing.T) {
	ctx := context.Background()
	fw := newFramework(t, DefaultConfig(), seedStore(t))
	if _, err := fw.Train(ctx, time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	window := dupHeavyBatch(1000)
	dist, _ := fw.Encoder().EncodeDistinct(window, 0) // first sight
	vectorBytes := uint64(len(dist) * fw.Encoder().Dim() * 4)
	bytesPerRun := func() uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := fw.ClassifyJobs(ctx, window); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	if embedded := bytesPerRun(); embedded < vectorBytes { // second sight: notes them
		t.Fatalf("a window embedding %d vectors allocated %d B, under their %d B", len(dist), embedded, vectorBytes)
	}
	if noted := bytesPerRun(); noted >= vectorBytes {
		t.Errorf("a noted window of %d strings allocated %d B, as much as their vectors (%d B)", len(dist), noted, vectorBytes)
	}
}
