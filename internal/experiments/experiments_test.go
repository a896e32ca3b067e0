package experiments

import (
	"slices"
	"strings"
	"testing"

	"github.com/niid-bench/niidbench/internal/fl"
)

func smokeHarness(datasets ...string) *harness {
	return newHarness(Options{Scale: Smoke, Seed: 3, Datasets: datasets})
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestOptionsNormalize checks the defaults and the one dataset rule: an
// artifact spanning several datasets filters them by Datasets, a
// single-dataset artifact takes a single value as its override.
func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != Quick || o.Seed != 1 || o.Trials != profiles[Quick].trials || o.Concurrency != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	if !o.wantDataset("anything") || o.dataset("cifar10") != "cifar10" {
		t.Fatal("no filter must keep every dataset and every default")
	}
	one := Options{Datasets: []string{"adult"}}
	if one.wantDataset("mnist") || !one.wantDataset("adult") || one.dataset("cifar10") != "adult" {
		t.Fatal("one value must filter and override")
	}
	if two := (Options{Datasets: []string{"adult", "mnist"}}); two.dataset("cifar10") != "cifar10" {
		t.Fatal("several values must not override a single-dataset artifact")
	}
}

func TestHarnessDatasetCaching(t *testing.T) {
	h := smokeHarness()
	a1, _, err := h.load("adult")
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := h.load("adult")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("dataset not cached")
	}
}

func TestJobDefaults(t *testing.T) {
	h := smokeHarness()
	cfg, _, locals, _, err := h.job(at("adult", iid))
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != profiles[Smoke].parties || cfg.Rounds != profiles[Smoke].rounds ||
		cfg.LocalEpochs != profiles[Smoke].epochs || cfg.BatchSize != profiles[Smoke].batch ||
		cfg.LR != 0.01 || cfg.Mu != 0.01 || cfg.Seed != h.opt.Seed {
		t.Fatalf("defaults: %d parties, %+v", len(locals), cfg)
	}
	if cfg, _, _, _, err = h.job(at("rcv1", iid)); err != nil || cfg.LR != 0.1 {
		t.Fatalf("rcv1 must default to lr 0.1 per the paper: %v, %v", cfg.LR, err)
	}
	_, _, locals, _, err = h.job(at("fcube", cube))
	if err != nil || len(locals) != 4 {
		t.Fatalf("fcube must run with 4 parties: %d, %v", len(locals), err)
	}
}

// TestRunSettingPicksAWire: a cell whose config needs a wire runs over the
// pipes, where the codec really shrinks the frames, instead of being
// refused by (or silently ignored in) the lockstep simulation.
func TestRunSettingPicksAWire(t *testing.T) {
	h := smokeHarness()
	s := at("adult", iid)
	raw, err := h.execute(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Codec = fl.CodecInt8
	quant, err := h.execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if quant.CommBytesPerRound*4 >= raw.CommBytesPerRound {
		t.Fatalf("int8 moved %.0f B/round against f64's %.0f", quant.CommBytesPerRound, raw.CommBytesPerRound)
	}
}

// TestRunSettingExecutes: the runner trains a cell for the profile's rounds.
func TestRunSettingExecutes(t *testing.T) {
	res, err := smokeHarness().execute(at("adult", iid))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != profiles[Smoke].rounds {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
}

// laidOut expands artifact id for o without training anything.
func laidOut(t *testing.T, id string, o Options) *sweep {
	t.Helper()
	for _, g := range grids {
		if g.id == id {
			return g.expand(o)
		}
	}
	t.Fatalf("%s is not a grid", id)
	return nil
}

// TestRunTrialsDistinctSeeds: the trials of a mean±std cell run at
// distinct seeds, the first at the master seed.
func TestRunTrialsDistinctSeeds(t *testing.T) {
	sw := laidOut(t, "table5", Options{Scale: Smoke, Seed: 3, Trials: 2})
	c := sw.panels[0].cells[0][0]
	if c.trials != 2 || len(c.runs) != 2 || c.runs[0].Seed != 3 || c.runs[1].Seed == c.runs[0].Seed {
		t.Fatalf("trials %d, runs %d", c.trials, len(c.runs))
	}
}

// TestExpandCells checks the pure expansion of artifacts into cells and
// runs: the per-scale grids, μ tuning only in the mean±std tables at paper
// scale, the K > classes skip and the dataset rule.
func TestExpandCells(t *testing.T) {
	for _, row := range []struct {
		id          string
		scale       Scale
		datasets    []string
		cells, runs int
		skips       []string
		onlyOn      string // every cell's dataset, when set
	}{
		{id: "table3", scale: Smoke, cells: 176, runs: 176},
		{id: "table3", scale: Paper, cells: 176, runs: 132*3 + 44*4*3}, // FedProx: trials × μ grid
		{id: "table3", scale: Smoke, datasets: []string{"adult"}, cells: 16, runs: 16, onlyOn: "adult"},
		{id: "table3", scale: Smoke, datasets: []string{"adult", "mnist"}, cells: 44, runs: 44},
		{id: "table5", scale: Quick, cells: 24, runs: 24, onlyOn: "cifar10"},
		{id: "table5", scale: Paper, cells: 24, runs: 18*3 + 6*4*3},
		{id: "table5", scale: Smoke, datasets: []string{"adult"}, cells: 24, runs: 24, onlyOn: "adult"},
		{id: "table5", scale: Smoke, datasets: []string{"adult", "mnist"}, cells: 24, runs: 24, onlyOn: "cifar10"},
		{id: "fig8", scale: Paper, cells: 8, runs: 8},
		{id: "fig9", scale: Smoke, cells: 16, runs: 16},
		{id: "fig9", scale: Paper, cells: 32, runs: 32}, // figures are single runs, μ untuned
		{id: "fig13", scale: Smoke, cells: 24, runs: 24},
		{id: "fig13", scale: Smoke, datasets: []string{"adult"}, cells: 20, runs: 20,
			skips: []string{"\nskipping #C=3: dataset has only 2 classes\n"}, onlyOn: "adult"},
		{id: "fig16", scale: Smoke, datasets: []string{"fcube"}, cells: 4, runs: 4, onlyOn: "fcube"},
		{id: "fig18", scale: Quick, cells: 96, runs: 96},
		{id: "fig21", scale: Paper, cells: 32, runs: 32},
		{id: "fig10", scale: Paper, cells: 8, runs: 8},
		{id: "fig22", scale: Smoke, cells: 16, runs: 16},
		{id: "fig22", scale: Smoke, datasets: []string{"adult"}, cells: 12, runs: 12,
			skips: []string{"\nskipping #C=3: dataset has only 2 classes\n"}},
		{id: "fig11", scale: Quick, cells: 32, runs: 32},
		{id: "fig23", scale: Smoke, cells: 8, runs: 8},
		{id: "fig23", scale: Paper, cells: 20, runs: 20},
		{id: "fig24", scale: Quick, cells: 24, runs: 24},
		{id: "ablations", scale: Paper, cells: 6, runs: 6},
		{id: "leaderboard", scale: Quick, cells: 30, runs: 30},
		{id: "leaderboard", scale: Smoke, datasets: []string{"adult"}, cells: 12, runs: 12, onlyOn: "adult"},
		{id: "extensions", scale: Paper, cells: 12, runs: 12},
		{id: "sampling", scale: Paper, cells: 2, runs: 2},
	} {
		sw := laidOut(t, row.id, Options{Scale: row.scale, Datasets: row.datasets})
		var cells, runs int
		var skips []string
		for _, pn := range sw.panels {
			if pn.skip != "" {
				skips = append(skips, pn.skip)
			}
			for _, line := range pn.cells {
				for _, c := range line {
					cells++
					runs += len(c.runs)
					for _, r := range c.runs {
						if row.onlyOn != "" && r.Dataset != row.onlyOn {
							t.Errorf("%s %s %v: a cell runs on %s", row.id, row.scale, row.datasets, r.Dataset)
						}
						if r.Mu != 0 && !(strings.HasPrefix(row.id, "table") && row.scale == Paper && r.Algorithm == fl.FedProx) {
							t.Errorf("%s %s: μ %g tuned outside a paper-scale mean±std table", row.id, row.scale, r.Mu)
						}
					}
				}
			}
		}
		if cells != row.cells || runs != row.runs || !slices.Equal(skips, row.skips) {
			t.Errorf("%s %s %v: %d cells, %d runs, skips %q; want %d, %d, %q",
				row.id, row.scale, row.datasets, cells, runs, skips, row.cells, row.runs, row.skips)
		}
	}
}

// TestExperimentsSmoke: the data reports' goldens.
func TestExperimentsSmoke(t *testing.T) {
	for _, id := range []string{"table2", "fig4", "fig5", "fig6", "fig7"} {
		golden(t, id)
	}
}

func TestTable3SmokeSingleDataset(t *testing.T)            { golden(t, "table3") }
func TestTable4Smoke(t *testing.T)                         { golden(t, "table4") }
func TestTable5Smoke(t *testing.T)                         { golden(t, "table5") }
func TestFig3Smoke(t *testing.T)                           { golden(t, "fig3") }
func TestFig8CurvesSmoke(t *testing.T)                     { golden(t, "fig8") }
func TestFig9EpochSweepSmoke(t *testing.T)                 { golden(t, "fig9") }
func TestFig10SamplingSmoke(t *testing.T)                  { golden(t, "fig10") }
func TestFig11ScalabilitySmoke(t *testing.T)               { golden(t, "fig11") }
func TestFig22SkipsInvalidKForBinaryDatasets(t *testing.T) { golden(t, "fig22") }
func TestFig23BatchSmoke(t *testing.T)                     { golden(t, "fig23") }
func TestAblationsSmoke(t *testing.T)                      { golden(t, "ablations") }
func TestLeaderboardSmoke(t *testing.T)                    { golden(t, "leaderboard") }
func TestExtensionsSmoke(t *testing.T)                     { golden(t, "extensions") }
func TestSamplingExtSmoke(t *testing.T)                    { golden(t, "sampling") }
func TestCodecSweepSmoke(t *testing.T)                     { golden(t, "codec") }

// TestConcurrentTrialsMatchSequential: runs training in parallel must
// reproduce the sequential output byte for byte — seeds are fixed at
// expansion, concurrent simulations are bitwise deterministic (per-model
// compute budgets change scheduling, never arithmetic) and cells render in
// layout order.
func TestConcurrentTrialsMatchSequential(t *testing.T) {
	for _, id := range []string{"fig9", "fig11", "table5", "leaderboard"} {
		out, err := runArtifact(id, 2)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, id, out)
	}
}

// smoke runs an artifact whose output is timing-dependent and checks it
// printed its parts.
func smoke(t *testing.T, id string, want ...string) {
	t.Helper()
	var out strings.Builder
	if err := Run(id, Options{Scale: Smoke, Out: &out, Seed: 3, Datasets: []string{"adult"}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(out.String(), w) {
			t.Fatalf("%s output missing %q:\n%s", id, w, out.String())
		}
	}
}

func TestAsyncSmoke(t *testing.T) { smoke(t, "async", "sync", "async M=1", "staleness", "folds") }

func TestChaosSmoke(t *testing.T) {
	smoke(t, "chaos", "fedavg (baseline", "scaffold (baseline", "drop=0.20 rejoin=off", "drop=0.20 rejoin=on", "evictions")
}
