package experiments

import (
	"strings"
	"testing"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
)

func smokeHarness(out *strings.Builder, datasets ...string) *Harness {
	return NewHarness(Options{Scale: Smoke, Out: out, Seed: 3, Datasets: datasets})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4", "table5",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "ablations",
		"chaos", "async",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Fatalf("missing experiment %s: %v", id, err)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != Quick || o.Seed != 1 || o.Trials != profiles[Quick].trials {
		t.Fatalf("defaults: %+v", o)
	}
	if !o.wantDataset("anything") {
		t.Fatal("empty filter must accept everything")
	}
	o2 := Options{Datasets: []string{"adult"}}.normalize()
	if o2.wantDataset("mnist") || !o2.wantDataset("adult") {
		t.Fatal("dataset filter broken")
	}
}

func TestHarnessDatasetCaching(t *testing.T) {
	var out strings.Builder
	h := smokeHarness(&out)
	a1, _, err := h.Dataset("adult")
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := h.Dataset("adult")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("dataset not cached")
	}
}

func TestJobDefaults(t *testing.T) {
	var out strings.Builder
	h := smokeHarness(&out)
	iid := partition.Strategy{Kind: partition.Homogeneous}
	cfg, _, locals, _, err := h.job(Setting{Dataset: "adult", Strategy: iid})
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != profiles[Smoke].parties || cfg.Rounds != profiles[Smoke].rounds ||
		cfg.LocalEpochs != profiles[Smoke].epochs || cfg.BatchSize != profiles[Smoke].batch ||
		cfg.LR != 0.01 || cfg.Mu != 0.01 || cfg.Seed != h.opt.Seed {
		t.Fatalf("defaults: %d parties, %+v", len(locals), cfg)
	}
	if cfg, _, _, _, err = h.job(Setting{Dataset: "rcv1", Strategy: iid}); err != nil || cfg.LR != 0.1 {
		t.Fatalf("rcv1 must default to lr 0.1 per the paper: %v, %v", cfg.LR, err)
	}
	_, _, locals, _, err = h.job(Setting{Dataset: "fcube", Strategy: partition.Strategy{Kind: partition.FeatureSynthetic}})
	if err != nil || len(locals) != 4 {
		t.Fatalf("fcube must run with 4 parties: %d, %v", len(locals), err)
	}
}

// TestRunSettingPicksAWire: a Setting whose config needs a wire runs over
// the pipes, where the codec really shrinks the frames, instead of being
// refused by (or silently ignored in) the lockstep simulation.
func TestRunSettingPicksAWire(t *testing.T) {
	var out strings.Builder
	h := smokeHarness(&out)
	s := gridCell("adult", partition.Strategy{Kind: partition.Homogeneous}, fl.FedAvg)
	raw, err := h.RunSetting(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Codec = fl.CodecInt8
	quant, err := h.RunSetting(s)
	if err != nil {
		t.Fatal(err)
	}
	if quant.CommBytesPerRound*4 >= raw.CommBytesPerRound {
		t.Fatalf("int8 moved %.0f B/round against f64's %.0f", quant.CommBytesPerRound, raw.CommBytesPerRound)
	}
}

func TestRunSettingExecutes(t *testing.T) {
	var out strings.Builder
	h := smokeHarness(&out)
	res, err := h.RunSetting(gridCell("adult", partition.Strategy{Kind: partition.Homogeneous}, fl.FedAvg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != profiles[Smoke].rounds {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
}

func TestRunTrialsDistinctSeeds(t *testing.T) {
	var out strings.Builder
	h := NewHarness(Options{Scale: Smoke, Out: &out, Seed: 3, Trials: 2})
	accs, err := h.RunTrials(gridCell("adult", partition.Strategy{Kind: partition.Homogeneous}, fl.FedAvg))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 2 {
		t.Fatalf("trials: %d", len(accs))
	}
}

// TestExperimentsSmoke runs the fast experiments end to end at smoke scale
// and checks they produce non-trivial output.
func TestExperimentsSmoke(t *testing.T) {
	fast := []string{"table2", "fig4", "fig5", "fig6", "fig7"}
	for _, id := range fast {
		var out strings.Builder
		if err := Run(id, Options{Scale: Smoke, Out: &out, Seed: 3}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.String()) < 50 {
			t.Fatalf("%s produced almost no output: %q", id, out.String())
		}
	}
}

func TestAsyncSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("async", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"sync", "async M=1", "staleness", "folds"} {
		if !strings.Contains(s, want) {
			t.Fatalf("async output missing %q:\n%s", want, s)
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	var out strings.Builder
	if err := Run("table4", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "adult") || !strings.Contains(s, "Communication size") {
		t.Fatalf("table4 output missing parts:\n%s", s)
	}
}

func TestTable3SmokeSingleDataset(t *testing.T) {
	var out strings.Builder
	if err := Run("table3", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"adult", "p_k~Dir(0.5)", "#C=1", "q~Dir(0.5)", "IID", "times best"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, s)
		}
	}
}

func TestTable5Smoke(t *testing.T) {
	var out strings.Builder
	// Use the tabular dataset for speed; the mixed-skew machinery is the
	// same as for cifar10.
	if err := Run("table5", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "label + feature") || !strings.Contains(s, "feature + quantity") {
		t.Fatalf("table5 output missing mixed rows:\n%s", s)
	}
}

func TestFig8CurvesSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("fig8", Options{Scale: Smoke, Out: &out, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, algo := range fl.Algorithms() {
		if !strings.Contains(s, string(algo)) {
			t.Fatalf("fig8 missing %s:\n%s", algo, s)
		}
	}
}

func TestFig9EpochSweepSmoke(t *testing.T) {
	var out strings.Builder
	h := NewHarness(Options{Scale: Smoke, Out: &out, Seed: 3})
	if err := sweepEpochs(h, "adult", partition.Strategy{Kind: partition.Homogeneous}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E=1") {
		t.Fatalf("epoch sweep output:\n%s", out.String())
	}
}

func TestFig10SamplingSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("fig10", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sample fraction") {
		t.Fatalf("fig10 output:\n%s", out.String())
	}
}

func TestFig11ScalabilitySmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("fig11", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "N=4") {
		t.Fatalf("fig11 output:\n%s", out.String())
	}
}

func TestFig23BatchSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("fig23", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "batch=16") {
		t.Fatalf("fig23 output:\n%s", out.String())
	}
}

func TestAblationsSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("ablations", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"mnist"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"SCAFFOLD control-variate", "Batch-norm", "weighting"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ablations missing %q:\n%s", want, s)
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	var out strings.Builder
	if err := Run("fig3", Options{Scale: Smoke, Out: &out, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Criteo") || !strings.Contains(s, "centroid") {
		t.Fatalf("fig3 output:\n%s", s)
	}
}

func TestLeaderboardSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("leaderboard", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Leaderboard") || !strings.Contains(s, "feddyn") {
		t.Fatalf("leaderboard output:\n%s", s)
	}
}

func TestExtensionsSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("extensions", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "moon") {
		t.Fatalf("extensions output:\n%s", out.String())
	}
}

func TestSamplingExtSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("sampling", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "random") || !strings.Contains(s, "stratified") {
		t.Fatalf("sampling output:\n%s", s)
	}
}

func TestTuneMu(t *testing.T) {
	var out strings.Builder
	h := NewHarness(Options{Scale: Smoke, Out: &out, Seed: 3, Trials: 1, TuneMu: true})
	accs, err := h.RunTrials(gridCell("adult", partition.Strategy{Kind: partition.Homogeneous}, fl.FedProx))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 1 {
		t.Fatalf("tuned trials: %d", len(accs))
	}
}

func TestFig22SkipsInvalidKForBinaryDatasets(t *testing.T) {
	// fig22 sweeps #C up to 3; on a 2-class dataset those strategies must
	// be skipped, not panic (regression for the bench suite).
	var out strings.Builder
	if err := Run("fig22", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipping") {
		t.Fatalf("expected skip notice:\n%s", out.String())
	}
}

func TestConcurrentTrialsMatchSequential(t *testing.T) {
	// Grid cells running in parallel must reproduce the sequential results
	// exactly: trial seeds are fixed up front, and concurrent Simulations
	// are bitwise deterministic (per-model compute budgets change
	// scheduling, never arithmetic).
	setting := gridCell("adult", partition.Strategy{Kind: partition.Homogeneous}, fl.FedAvg)
	seq, err := NewHarness(Options{Scale: Smoke, Seed: 3, Trials: 2}).RunTrials(setting)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewHarness(Options{Scale: Smoke, Seed: 3, Trials: 2, Concurrency: 2}).RunTrials(setting)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("trial counts: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d: sequential %v vs concurrent %v", i, seq[i], par[i])
		}
	}
}

// TestCodecSweepSmoke runs the accuracy-vs-bytes codec sweep at smoke
// scale: all four codecs must complete over real TCP and the f64 row must
// anchor the reduction column at 1.00x.
func TestCodecSweepSmoke(t *testing.T) {
	var out strings.Builder
	if err := Run("codec", Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"f64", "f32", "int8", "int4", "1.00x", "reduction"} {
		if !strings.Contains(s, want) {
			t.Fatalf("codec output missing %q:\n%s", want, s)
		}
	}
}
