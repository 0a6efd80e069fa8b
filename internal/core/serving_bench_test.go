package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcbound/internal/encode"
	"mcbound/internal/job"
)

// Serving-path benchmarks for the non-blocking inference stack: batch
// classification (distinct pass, one fan-out inside the model), the
// sharded embedding cache hot/cold split, and a full Training Workflow
// pass. benchmark/ reports
// the same layers standalone as its core.* per-layer metrics.

// benchBatch builds n submitted-but-unexecuted jobs spread over a fixed
// number of distinct feature strings, mirroring a live submission
// stream where app/user pairs repeat heavily.
func benchBatch(n int) []*job.Job {
	submit := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]*job.Job, n)
	for i := range batch {
		batch[i] = &job.Job{
			ID:             fmt.Sprintf("b%05d", i),
			User:           fmt.Sprintf("u%04d", i%17),
			Name:           fmt.Sprintf("svc_app_%02d", i%50),
			Environment:    "gcc/12.2",
			CoresRequested: 48,
			NodesRequested: 1,
			FreqRequested:  job.FreqNormal,
			SubmitTime:     submit.Add(time.Duration(i) * time.Second),
		}
	}
	return batch
}

// benchServingFramework returns a trained framework over the seed
// trace.
func benchServingFramework(b *testing.B) *Framework {
	b.Helper()
	fw := newFramework(b, DefaultConfig(), seedStore(b))
	if _, err := fw.Train(context.Background(), time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)); err != nil {
		b.Fatal(err)
	}
	return fw
}

// BenchmarkClassifyBatch measures a 1000-job ClassifyJobs call over 850
// distinct feature strings. The workers-1 variant pins GOMAXPROCS to 1
// (every kernel runs its one chunk on the caller's goroutine);
// workers-max uses every core, so the ratio between the two is the
// fan-out speedup on this machine.
func BenchmarkClassifyBatch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{
		{"workers-1", 1},
		{"workers-max", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(bc.procs)
			defer runtime.GOMAXPROCS(prev)
			fw := benchServingFramework(b)
			batch := benchBatch(1000)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				preds, err := fw.ClassifyJobs(ctx, batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(preds) != len(batch) {
					b.Fatal("short batch")
				}
			}
		})
	}
}

// BenchmarkClassifySingle splits the one-job classify cost by cache
// temperature: cache-hit serves the embedding from the sharded LRU,
// cold disables the cache so every call re-tokenizes and re-hashes.
func BenchmarkClassifySingle(b *testing.B) {
	run := func(b *testing.B, capacity int) {
		fw := benchServingFramework(b)
		fw.Encoder().SetCacheCapacity(capacity)
		fw.Encoder().ResetCache()
		one := benchBatch(1)
		ctx := context.Background()
		if _, err := fw.ClassifyJobs(ctx, one); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fw.ClassifyJobs(ctx, one); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cache-hit", func(b *testing.B) { run(b, encode.DefaultCacheCapacity) })
	b.Run("cold", func(b *testing.B) { run(b, 0) })
}

// BenchmarkTrain measures a full Training Workflow pass (fetch, label,
// encode, fit) on the seed trace, the unit of work the hot-swap moves
// off the serving path.
func BenchmarkTrain(b *testing.B) {
	fw := benchServingFramework(b)
	trainAt := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Train(ctx, trainAt); err != nil {
			b.Fatal(err)
		}
	}
}
