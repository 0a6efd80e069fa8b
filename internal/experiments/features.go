package experiments

import (
	"fmt"
	"io"

	"mcbound/internal/core"
	"mcbound/internal/encode"
)

// The feature-set ablation of §V-A: prior work's feature set (user name,
// job name, #cores, #nodes, environment) versus the paper's augmented
// set that adds the requested frequency. The paper reports the
// augmentation improves prediction performance.

// FeatureSet names one encoder configuration for the ablation.
type FeatureSet struct {
	Name     string
	Features []encode.Feature
}

// AblationFeatureSets returns the §V-A candidates, from weakest to the
// paper's final choice.
func AblationFeatureSets() []FeatureSet {
	return []FeatureSet{
		{"name+cores (baseline features)", encode.BaselineFeatures()},
		{"prior work [4] (no frequency)", []encode.Feature{
			encode.FeatUser, encode.FeatJobName, encode.FeatCoresRequested,
			encode.FeatNodesRequested, encode.FeatEnvironment,
		}},
		{"augmented (paper)", encode.DefaultFeatures()},
	}
}

// FeatureAblationResult is one row of the ablation.
type FeatureAblationResult struct {
	Set FeatureSet
	F1  float64
}

// FeatureAblation runs the online RF at its best setting once per
// feature subset.
func FeatureAblation(env *Env, seed uint64) ([]FeatureAblationResult, error) {
	var out []FeatureAblationResult
	for _, set := range AblationFeatureSets() {
		cfg := core.DefaultConfig()
		cfg.Model, cfg.Params, cfg.Features = core.ModelRF, BestParams(core.ModelRF), set.Features
		cfg.Seed = seed
		res, err := replayTestMonth(env, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: feature set %q: %w", set.Name, err)
		}
		out = append(out, FeatureAblationResult{Set: set, F1: res.F1})
	}
	return out, nil
}

// ReportFeatures renders the §V-A feature ablation.
func ReportFeatures(w io.Writer, env *Env, seed uint64) error {
	fmt.Fprintln(w, "== Feature-set ablation (§V-A: adding frequency improves prediction) ==")
	rows, err := FeatureAblation(env, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %10s %8s\n", "feature set", "#features", "F1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %10d %8.4f\n", r.Set.Name, len(r.Set.Features), r.F1)
	}
	fmt.Fprintln(w)
	return nil
}
