// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment is registered under the paper's
// artifact name (table3, fig8, ...) and prints output in the same layout
// as the paper, so paper-vs-measured comparison is a side-by-side read.
// The sweeps (grid.go, grids.go) are declarative specs run by one cell
// runner; the data reports and the transport experiments are functions.
//
// Experiments run at one of three scales:
//
//   - smoke: seconds; used by tests and benchmarks to validate plumbing.
//   - quick: minutes; the default CLI scale — small synthetic datasets and
//     few rounds, enough for every qualitative shape the paper reports.
//   - paper: the paper's round/epoch/batch settings over the full synthetic
//     dataset sizes; hours of CPU.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// Scale selects an experiment-size profile.
type Scale string

// The three supported scales.
const (
	Smoke Scale = "smoke"
	Quick Scale = "quick"
	Paper Scale = "paper"
)

// profile fixes the sizes a scale uses. The sweep grids keep the paper's
// span at every scale: epochs {10..80} shrink to 8x, batch sizes 16..256,
// parties 10..40; partial participation is the paper's 100 parties at
// fraction 0.1 over 500 rounds.
type profile struct {
	imgTrain, imgTest, tabTrain, tabTest   int
	rounds, epochs, batch, parties, trials int

	epochGrid, batchGrid, partyGrid []int
	sampleParties, sampleRounds     int
	sampleFraction                  float64
	// muGrid is the FedProx μ the mean±std tables tune over (Table III's
	// protocol: best μ by mean); empty runs the default μ = 0.01.
	muGrid []float64
}

var profiles = map[Scale]profile{
	Smoke: {imgTrain: 300, imgTest: 120, tabTrain: 400, tabTest: 200, rounds: 2, epochs: 1, batch: 32, parties: 4, trials: 1,
		epochGrid: []int{1, 2}, batchGrid: []int{16, 64}, partyGrid: []int{4, 8},
		sampleParties: 8, sampleFraction: 0.25, sampleRounds: 2},
	Quick: {imgTrain: 1000, imgTest: 300, tabTrain: 1500, tabTest: 500, rounds: 10, epochs: 3, batch: 32, parties: 10, trials: 1,
		epochGrid: []int{2, 4, 8, 16}, batchGrid: []int{16, 32, 64, 128}, partyGrid: []int{5, 10, 20, 40},
		sampleParties: 20, sampleFraction: 0.2, sampleRounds: 15},
	Paper: {imgTrain: 2000, imgTest: 600, tabTrain: 3000, tabTest: 1000, rounds: 50, epochs: 10, batch: 64, parties: 10, trials: 3,
		epochGrid: []int{10, 20, 40, 80}, batchGrid: []int{16, 32, 64, 128, 256}, partyGrid: []int{10, 20, 30, 40},
		sampleParties: 100, sampleFraction: 0.1, sampleRounds: 500,
		muGrid: []float64{0.001, 0.01, 0.1, 1}},
}

// Options configures a harness run.
type Options struct {
	Scale Scale
	Out   io.Writer
	Seed  uint64
	// Trials is how many seeds each cell of a mean±std table (table3,
	// table5) averages; 0 = the scale's default. Figures are single runs.
	Trials int
	// Datasets restricts an artifact that spans several datasets to these;
	// a single value replaces the dataset of a single-dataset artifact.
	Datasets []string
	// Concurrency bounds how many of an artifact's runs train at once
	// (default 1, sequential). Concurrent runs are safe because every
	// simulation's kernel fan-out comes from per-model compute budgets —
	// there is no process-global parallelism state to clobber — and each
	// run's within-round client parallelism is scaled down to its share
	// of the machine.
	Concurrency int
}

func (o Options) normalize() Options {
	o.Scale = cmp.Or(o.Scale, Quick)
	o.Seed = cmp.Or(o.Seed, 1)
	o.Trials = cmp.Or(o.Trials, profiles[o.Scale].trials)
	o.Concurrency = max(o.Concurrency, 1)
	return o
}

// wantDataset is the dataset rule for an artifact spanning several
// datasets: -datasets filters them.
func (o Options) wantDataset(name string) bool {
	return len(o.Datasets) == 0 || slices.Contains(o.Datasets, name)
}

// dataset is the dataset rule for a single-dataset artifact: one
// -datasets value replaces its default.
func (o Options) dataset(def string) string {
	if len(o.Datasets) == 1 {
		return o.Datasets[0]
	}
	return def
}

// Experiment is one registered paper artifact.
type Experiment struct {
	ID    string
	Title string
	run   func(h *harness) error
}

// artifacts is every registered artifact, sorted by ID: the data reports
// and transport experiments listed here, then the grids (grids.go).
var artifacts = []Experiment{
	{"table2", "Dataset statistics (Table II)", runTable2},
	{"table4", "Computation time and communication size per round (Table IV)", runTable4},
	{"fig3", "Non-IID properties of real data: Criteo label/quantity skew, Digits feature skew (Figure 3)", runFig3},
	{"fig4", "Distribution-based label imbalance heat map (Figure 4)", runFig4},
	{"fig5", "Noise-based feature imbalance example (Figure 5)", runFig5},
	{"fig6", "FCUBE partition visualization (Figure 6)", runFig6},
	{"fig7", "Decision tree for algorithm selection (Figure 7)", runFig7},
	{"codec", "Quantized wire codecs: accuracy vs communication bytes at equal rounds", runCodec},
	{"async", "Buffered-async aggregation: wall-clock and accuracy vs synchronous rounds under stragglers", runAsync},
	{"chaos", "Fault injection and elastic membership: completion, dropped updates and accuracy under drop x rejoin", runChaos},
}

func init() {
	for _, g := range grids {
		artifacts = append(artifacts, Experiment{g.id, g.title, g.run})
	}
	slices.SortFunc(artifacts, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, error) {
	i := slices.IndexFunc(artifacts, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (run `niidbench list`)", id)
	}
	return artifacts[i], nil
}

// All returns every registered experiment sorted by ID.
func All() []Experiment { return slices.Clone(artifacts) }

// Run executes the experiment with the given id.
func Run(id string, opt Options) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	h := newHarness(opt)
	fmt.Fprintf(h.out, "== %s: %s (scale=%s) ==\n", e.ID, e.Title, h.opt.Scale)
	return e.run(h)
}

// harness carries shared state across an experiment run: options, the
// active profile and a dataset cache.
type harness struct {
	out io.Writer
	opt Options
	p   profile

	mu    sync.Mutex
	cache map[string][2]*data.Dataset
}

func newHarness(opt Options) *harness {
	opt = opt.normalize()
	return &harness{out: cmp.Or(opt.Out, io.Discard), opt: opt, p: profiles[opt.Scale], cache: map[string][2]*data.Dataset{}}
}

// load loads (and caches) the named dataset at the harness scale.
func (h *harness) load(name string) (train, test *data.Dataset, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if pair, ok := h.cache[name]; ok {
		return pair[0], pair[1], nil
	}
	spec, err := data.Model(name)
	if err != nil {
		return nil, nil, err
	}
	cfg := data.Config{TrainN: h.p.imgTrain, TestN: h.p.imgTest, Seed: h.opt.Seed}
	if spec.Kind == nn.KindMLP {
		cfg.TrainN, cfg.TestN = h.p.tabTrain, h.p.tabTest
	}
	if name == "fcube" {
		cfg.TrainN, cfg.TestN = 4000, 1000 // the paper's exact FCUBE size
		if h.opt.Scale == Smoke {
			cfg.TrainN, cfg.TestN = 400, 100
		}
	}
	train, test, err = data.Load(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	h.cache[name] = [2]*data.Dataset{train, test}
	return train, test, nil
}

// paperLR is the paper's learning-rate tuning where it is not 0.01.
var paperLR = map[string]float64{"rcv1": 0.1}

// setting names one federated run: the dataset, how it is partitioned,
// and overrides. Zero fields — Parties, Model and every field of the
// embedded fl.Config — take the profile's and the paper's defaults.
type setting struct {
	Dataset  string
	Strategy partition.Strategy
	Parties  int
	Model    nn.ModelKind
	fl.Config
}

// job resolves a setting against the harness profile into what every
// runner takes: the training config, the model spec, the per-party shards
// and the test set. It is the only place the harness loads, splits and
// configures; the transport experiments hand its result to simnet, the
// sweeps to the cell runner.
func (h *harness) job(s setting) (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
	fail := func(err error) (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	cfg := s.Config
	cfg.Rounds = cmp.Or(cfg.Rounds, h.p.rounds)
	cfg.LocalEpochs = cmp.Or(cfg.LocalEpochs, h.p.epochs)
	cfg.BatchSize = cmp.Or(cfg.BatchSize, h.p.batch)
	cfg.LR = cmp.Or(cfg.LR, paperLR[s.Dataset], 0.01)
	cfg.Mu = cmp.Or(cfg.Mu, 0.01)
	cfg.Seed = cmp.Or(cfg.Seed, h.opt.Seed)
	if c := h.opt.Concurrency; c > 1 {
		// Concurrent runs split the machine: each trains its round's
		// clients under 1/c of the cores; the per-model compute budgets
		// inside fl keep the kernels within that share.
		cfg.Parallelism = max(runtime.GOMAXPROCS(0)/c, 1)
	}
	train, test, err := h.load(s.Dataset)
	if err != nil {
		return fail(err)
	}
	spec, err := data.Model(s.Dataset)
	if err != nil {
		return fail(err)
	}
	spec.Kind = cmp.Or(s.Model, spec.Kind)
	parties := s.Strategy.Parties(cmp.Or(s.Parties, h.p.parties))
	// The harness partition-seed rule, kept so the README's quick-scale
	// tables stay reproducible.
	_, locals, err := s.Strategy.Split(train, parties, rng.New(cfg.Seed*2654435761+uint64(len(s.Dataset))))
	if err != nil {
		return fail(err)
	}
	return cfg, spec, locals, test, nil
}
