package encode

import (
	"fmt"
	"testing"

	"mcbound/internal/job"
)

var benchStrings = []string{
	"u0001,cfd_prod_01,96,2,lang/tcsds-1.2.38,2000MHz",
	"u0392,qmc_scan_77,12288,256,fuji/4.8.1,2200MHz",
	"u0042,run.sh,48,1,gcc/12.2,2000MHz",
	"u0123,genome_hires_33,4608,96,python/3.10,2200MHz",
}

// BenchmarkEmbed measures the raw sentence-embedding cost — the
// substitute for the paper's 2 ms/job SBERT encoding — under the served
// field weights.
func BenchmarkEmbed(b *testing.B) {
	e := NewHashingEmbedder()
	e.FieldWeights = FieldWeightsFor(DefaultFeatures())
	dst := make([]float32, e.Dim())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EmbedInto(benchStrings[i%len(benchStrings)], dst)
	}
}

// BenchmarkEmbedDim is the embedding-dimensionality ablation: the cost
// is the per-token hashing plus a walk of the coordinates the tokens
// hit, nearly flat in the output dimension up to Dim; a wider embedder
// also allocates its dim-wide scratch every call.
func BenchmarkEmbedDim(b *testing.B) {
	for _, dim := range []int{64, 128, 384, 768} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			e := NewHashingEmbedderDim(dim)
			e.FieldWeights = FieldWeightsFor(DefaultFeatures())
			dst := make([]float32, dim)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.EmbedInto(benchStrings[i%len(benchStrings)], dst)
			}
		})
	}
}

func benchJobs(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			User:           fmt.Sprintf("u%04d", i%97),
			Name:           fmt.Sprintf("app_%03d", i%311),
			Environment:    "gcc/12.2",
			CoresRequested: 48 * (1 + i%8),
			NodesRequested: 1 + i%8,
			FreqRequested:  job.FreqNormal,
		}
	}
	return jobs
}

// BenchmarkEncodeBatchCold measures batch encoding with an empty memo
// (every string embedded); Warm measures the fully-memoized steady state
// the Training Workflow reaches after its first trigger.
func BenchmarkEncodeBatchCold(b *testing.B) {
	jobs := benchJobs(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEncoder(nil, nil)
		b.StartTimer()
		e.Encode(jobs)
	}
}

func BenchmarkEncodeBatchWarm(b *testing.B) {
	jobs := benchJobs(2048)
	e := NewEncoder(nil, nil)
	e.Encode(jobs) // prime the memo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode(jobs)
	}
}

// BenchmarkFeatureString isolates the comma-joined rendering step.
func BenchmarkFeatureString(b *testing.B) {
	jobs := benchJobs(64)
	feats := DefaultFeatures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FeatureString(jobs[i%len(jobs)], feats)
	}
}
