package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mcbound/internal/core"
	"mcbound/internal/online"
	"mcbound/internal/workload"
)

// tinyEnv generates the smallest trace the online evaluation accepts.
// Building it once keeps the integration tests fast on one core.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(workload.EvalConfig(0.005), 7)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvWiring(t *testing.T) {
	env := tinyEnv(t)
	if len(env.Jobs) == 0 || env.Store.Len() != len(env.Jobs) {
		t.Fatalf("jobs %d, store %d", len(env.Jobs), env.Store.Len())
	}
	if env.Characterizer.RidgePoint() < 3.2 || env.Characterizer.RidgePoint() > 3.4 {
		t.Errorf("ridge = %g", env.Characterizer.RidgePoint())
	}
	// The store must hold the test period the online runs replay.
	day := TestPeriodStart
	if len(env.Store.SubmittedBetween(day, day.AddDate(0, 0, 7))) == 0 {
		t.Error("store holds no jobs in the test period")
	}
}

func TestCharacterizeSummary(t *testing.T) {
	env := tinyEnv(t)
	sum, err := Characterize(env)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != len(env.Jobs) {
		t.Errorf("total = %d", sum.Total)
	}
	if sum.Labeled+sum.Skipped != sum.Total {
		t.Errorf("labeled %d + skipped %d != total %d", sum.Labeled, sum.Skipped, sum.Total)
	}
	if sum.Labeled == 0 {
		t.Fatal("nothing characterized")
	}
	// Table II cells must add up.
	if sum.NormalMem+sum.NormalComp+sum.BoostMem+sum.BoostComp != sum.Labeled {
		t.Error("Table II cells do not sum to labeled count")
	}
	if sum.MemoryBoundCount() <= sum.ComputeBoundCount() {
		t.Error("memory-bound not the majority class")
	}
	// Weekly series must cover the configured period and sum to totals.
	wk := 0
	for _, c := range sum.WeekCount {
		wk += c
	}
	if wk != sum.Total {
		t.Errorf("weekly counts sum %d != %d", wk, sum.Total)
	}

	// The figure renderers must produce non-trivial output.
	var buf bytes.Buffer
	sum.WriteFig2(&buf)
	sum.WriteFig3(&buf, env.Characterizer.RidgePoint())
	sum.WriteFig4(&buf)
	sum.WriteFig5(&buf)
	sum.WriteTable2(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Table II", "2.0 GHz", "memory:compute ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestMaintenanceDipVisibleInFig2(t *testing.T) {
	env := tinyEnv(t)
	sum, err := Characterize(env)
	if err != nil {
		t.Fatal(err)
	}
	// The week containing Feb 2–5 must have fewer submissions than its
	// neighbors.
	dipWeek := -1
	maint := time.Date(2024, 2, 2, 0, 0, 0, 0, time.UTC)
	for i, ws := range sum.WeekStart {
		if !ws.After(maint) && ws.AddDate(0, 0, 7).After(maint) {
			dipWeek = i
		}
	}
	if dipWeek <= 0 || dipWeek+1 >= len(sum.WeekCount) {
		t.Fatalf("maintenance week not found (index %d)", dipWeek)
	}
	if sum.WeekCount[dipWeek] >= sum.WeekCount[dipWeek-1] {
		t.Errorf("no dip: maintenance week %d vs previous %d",
			sum.WeekCount[dipWeek], sum.WeekCount[dipWeek-1])
	}
}

func TestRunOnlineBaselineSmoke(t *testing.T) {
	env := tinyEnv(t)
	res, err := RunOnline(env, core.ModelBaseline, online.Params{Alpha: 10, Beta: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Classified == 0 || res.Trainings != 5 {
		t.Errorf("jobs %d, retrainings %d", res.Classified, res.Trainings)
	}
	if res.F1 <= 0.3 || res.F1 > 1 {
		t.Errorf("baseline F1 = %g out of plausible range", res.F1)
	}
}

func TestRunOnlineUnknownModel(t *testing.T) {
	env := tinyEnv(t)
	if _, err := RunOnline(env, core.ModelKind("svm"), online.Params{Alpha: 10, Beta: 7}); err == nil {
		t.Error("accepted unknown model")
	}
}

func TestBestParams(t *testing.T) {
	if p := BestParams(core.ModelRF); p.Alpha != 15 || p.Beta != 1 {
		t.Errorf("RF best = %+v", p)
	}
	if p := BestParams(core.ModelKNN); p.Alpha != 30 || p.Beta != 1 {
		t.Errorf("KNN best = %+v", p)
	}
}

func TestScaledThetas(t *testing.T) {
	full := ScaledThetas(1)
	for i, want := range PaperThetas {
		if full[i] != want {
			t.Errorf("scale 1: %v", full)
		}
	}
	tiny := ScaledThetas(0.001)
	if tiny[0] != 10 {
		t.Errorf("clamp not applied: %v", tiny)
	}
	for i := 1; i < len(tiny); i++ {
		if tiny[i] < tiny[i-1] {
			t.Errorf("not monotone: %v", tiny)
		}
	}
}

func TestWriteAlphaBetaTable(t *testing.T) {
	cells := []AlphaBetaCell{
		{Model: core.ModelKNN, Alpha: 15, Beta: 1, F1: 0.9},
		{Model: core.ModelKNN, Alpha: 15, Beta: 2, F1: 0.88},
		{Model: core.ModelKNN, Alpha: 30, Beta: 1, F1: 0.91},
		{Model: core.ModelKNN, Alpha: 30, Beta: 2, F1: 0.89},
	}
	var buf bytes.Buffer
	WriteAlphaBetaTable(&buf, cells, []int{1, 2})
	out := buf.String()
	if !strings.Contains(out, "0.9100") || !strings.Contains(out, "0.8800") {
		t.Errorf("table missing cells:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 3 {
		t.Errorf("table too short:\n%s", out)
	}
}

func TestFeatureAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("feature ablation runs three online evaluations")
	}
	env := tinyEnv(t)
	rows, err := FeatureAblation(env, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The two-feature set must not beat the full feature sets; the
	// richer sets should be close to each other.
	if rows[0].F1 > rows[2].F1+0.02 {
		t.Errorf("name+cores features (%.3f) beat the augmented set (%.3f)",
			rows[0].F1, rows[2].F1)
	}
	for _, r := range rows {
		if r.F1 <= 0 || r.F1 > 1 {
			t.Errorf("F1 out of range: %+v", r)
		}
	}
}
