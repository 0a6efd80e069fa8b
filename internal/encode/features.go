// Package encode implements the MCBound Feature Encoder: it selects a
// subset of submission-time job features, renders them as the
// comma-separated string of the paper, and embeds that string into a
// fixed-size 384-dimensional float vector.
//
// The paper uses Sentence-BERT (all-MiniLM-L6-v2) for the embedding; this
// repository substitutes a from-scratch deterministic sentence embedder
// (subword tokenizer + signed feature hashing, see embed.go) with the
// same contract: fixed 384-dim output, unit norm, lexically similar
// strings map to nearby vectors. DESIGN.md §2 documents the substitution.
package encode

import (
	"fmt"
	"strconv"

	"mcbound/internal/job"
)

// Feature identifies one encodable job feature.
type Feature int

// The submission-time features MCBound can feed to the classifier. The
// paper's ablation selected user name, job name, #cores requested,
// #nodes requested and environment (from prior work) plus frequency
// requested.
const (
	FeatUser Feature = iota
	FeatJobName
	FeatCoresRequested
	FeatNodesRequested
	FeatEnvironment
	FeatFrequency
	numFeatures
)

// String returns the feature's trace-column name.
func (f Feature) String() string {
	switch f {
	case FeatUser:
		return "usr"
	case FeatJobName:
		return "jnam"
	case FeatCoresRequested:
		return "cnumr"
	case FeatNodesRequested:
		return "nnumr"
	case FeatEnvironment:
		return "env"
	case FeatFrequency:
		return "freq_req"
	default:
		return fmt.Sprintf("feature(%d)", int(f))
	}
}

// DefaultFeatures is the augmented feature set the paper settles on.
func DefaultFeatures() []Feature {
	return []Feature{
		FeatUser, FeatJobName, FeatCoresRequested,
		FeatNodesRequested, FeatEnvironment, FeatFrequency,
	}
}

// DefaultWeight returns the embedding field weight of a feature,
// reflecting how discriminative each feature proved in the initial
// empirical evaluation: identity features (user, name) dominate, the
// per-job-variable frequency weighs least so an app's runs stay close.
func DefaultWeight(f Feature) float32 {
	switch f {
	case FeatUser:
		return 1.6
	case FeatJobName:
		return 1.2
	case FeatEnvironment:
		return 1.0
	case FeatCoresRequested, FeatNodesRequested:
		return 0.8
	case FeatFrequency:
		return 0.6
	default:
		return 1.0
	}
}

// FieldWeightsFor maps a feature subset to its embedding field weights.
func FieldWeightsFor(feats []Feature) []float32 {
	out := make([]float32, len(feats))
	for i, f := range feats {
		out[i] = DefaultWeight(f)
	}
	return out
}

// BaselineFeatures is the reduced set of the §V.C.a simple baseline:
// (job name, #cores requested).
func BaselineFeatures() []Feature {
	return []Feature{FeatJobName, FeatCoresRequested}
}

// appendFeatureValue renders one feature of a job onto dst.
func appendFeatureValue(dst []byte, j *job.Job, f Feature) []byte {
	switch f {
	case FeatUser:
		return append(dst, j.User...)
	case FeatJobName:
		return append(dst, j.Name...)
	case FeatCoresRequested:
		return strconv.AppendInt(dst, int64(j.CoresRequested), 10)
	case FeatNodesRequested:
		return strconv.AppendInt(dst, int64(j.NodesRequested), 10)
	case FeatEnvironment:
		return append(dst, j.Environment...)
	case FeatFrequency:
		return append(strconv.AppendInt(dst, int64(j.FreqRequested), 10), "MHz"...)
	default:
		return dst
	}
}

// appendFeatureString renders the comma-separated feature string of j
// onto dst.
func appendFeatureString(dst []byte, j *job.Job, feats []Feature) []byte {
	for i, f := range feats {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFeatureValue(dst, j, f)
	}
	return dst
}

// FeatureString concatenates the selected feature values into the
// comma-separated representation the embedder consumes (paper §III-B).
func FeatureString(j *job.Job, feats []Feature) string {
	var buf [featureStringHint]byte
	return string(appendFeatureString(buf[:0], j, feats))
}

// featureStringHint sizes the stack buffers feature strings are rendered
// in; a longer string just spills to the heap.
const featureStringHint = 128
