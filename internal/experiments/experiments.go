// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment is registered under the paper's
// artifact name (table3, fig8, ...) and prints output in the same layout
// as the paper, so paper-vs-measured comparison is a side-by-side read.
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
	"sort"
	"sync"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
)

// Scale selects an experiment-size profile.
type Scale string

// The three supported scales.
const (
	Smoke Scale = "smoke"
	Quick Scale = "quick"
	Paper Scale = "paper"
)

// profile fixes the sizes a scale uses.
type profile struct {
	imgTrain, imgTest int
	tabTrain, tabTest int
	rounds            int
	epochs            int
	batch             int
	parties           int
	trials            int
}

var profiles = map[Scale]profile{
	Smoke: {imgTrain: 300, imgTest: 120, tabTrain: 400, tabTest: 200, rounds: 2, epochs: 1, batch: 32, parties: 4, trials: 1},
	Quick: {imgTrain: 1000, imgTest: 300, tabTrain: 1500, tabTest: 500, rounds: 10, epochs: 3, batch: 32, parties: 10, trials: 1},
	Paper: {imgTrain: 2000, imgTest: 600, tabTrain: 3000, tabTest: 1000, rounds: 50, epochs: 10, batch: 64, parties: 10, trials: 3},
}

// Options configures a harness run.
type Options struct {
	Scale  Scale
	Out    io.Writer
	Seed   uint64
	Trials int // 0 = the scale's default
	// Datasets restricts multi-dataset experiments to a subset; nil runs
	// every dataset the experiment covers.
	Datasets []string
	// TuneMu makes FedProx runs sweep mu over the paper's grid
	// {0.001, 0.01, 0.1, 1} and report the best, as Table III does.
	TuneMu bool
	// Concurrency bounds how many grid cells (trials) run at once
	// (default 1, sequential). Concurrent cells are safe because every
	// simulation's kernel fan-out comes from per-model compute budgets —
	// there is no process-global parallelism state to clobber — and each
	// cell's within-round client parallelism is scaled down to its share
	// of the machine.
	Concurrency int
}

func (o Options) normalize() Options {
	if o.Scale == "" {
		o.Scale = Quick
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = profiles[o.Scale].trials
	}
	if o.Concurrency < 1 {
		o.Concurrency = 1
	}
	return o
}

func (o Options) wantDataset(name string) bool {
	if len(o.Datasets) == 0 {
		return true
	}
	for _, d := range o.Datasets {
		if d == name {
			return true
		}
	}
	return false
}

// Experiment is one registered paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (run `niidbench list`)", id)
	}
	return e, nil
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	h := NewHarness(opt)
	fmt.Fprintf(h.Out, "== %s: %s (scale=%s) ==\n", e.ID, e.Title, h.opt.Scale)
	return e.Run(h)
}

// Harness carries shared state across an experiment run: options, the
// active profile and a dataset cache.
type Harness struct {
	Out io.Writer
	opt Options
	p   profile

	mu    sync.Mutex
	cache map[string][2]*data.Dataset
}

// NewHarness builds a harness for the given options.
func NewHarness(opt Options) *Harness {
	opt = opt.normalize()
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	return &Harness{Out: out, opt: opt, p: profiles[opt.Scale], cache: map[string][2]*data.Dataset{}}
}

// Dataset loads (and caches) the named dataset at the harness scale.
func (h *Harness) Dataset(name string) (train, test *data.Dataset, err error) {
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

// lrFor mirrors the paper's tuning: 0.1 for rcv1, 0.01 otherwise.
func lrFor(dataset string) float64 {
	if dataset == "rcv1" {
		return 0.1
	}
	return 0.01
}

// Setting names one federated run: the dataset, how it is partitioned,
// and overrides. Zero fields — Parties, Model and every field of the
// embedded fl.Config — take the profile's and the paper's defaults.
type Setting struct {
	Dataset  string
	Strategy partition.Strategy
	Parties  int
	Model    nn.ModelKind
	fl.Config
}

// gridCell is the Setting of one (dataset, strategy, algorithm) grid cell.
func gridCell(dataset string, strat partition.Strategy, algo fl.Algorithm) Setting {
	s := Setting{Dataset: dataset, Strategy: strat}
	s.Algorithm = algo
	return s
}

// job resolves a Setting against the harness profile into what every
// runner takes: the training config, the model spec, the per-party shards
// and the test set. It is the only place the harness loads, splits and
// configures; experiments that federate over a transport call it and hand
// the result to simnet, the rest go through RunSetting.
func (h *Harness) job(s Setting) (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
	fail := func(err error) (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	cfg := s.Config
	cfg.Rounds = cmp.Or(cfg.Rounds, h.p.rounds)
	cfg.LocalEpochs = cmp.Or(cfg.LocalEpochs, h.p.epochs)
	cfg.BatchSize = cmp.Or(cfg.BatchSize, h.p.batch)
	cfg.LR = cmp.Or(cfg.LR, lrFor(s.Dataset))
	cfg.Mu = cmp.Or(cfg.Mu, 0.01)
	cfg.Seed = cmp.Or(cfg.Seed, h.opt.Seed)
	if c := h.opt.Concurrency; c > 1 {
		// Concurrent grid cells split the machine: each cell trains its
		// round's clients under 1/c of the cores; the per-model compute
		// budgets inside fl keep the kernels within that share.
		cfg.Parallelism = max(runtime.GOMAXPROCS(0)/c, 1)
	}
	train, test, err := h.Dataset(s.Dataset)
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

// RunSetting executes one federated run in process and returns its
// result: over transport pipes when the config needs a wire, as the
// lockstep simulation otherwise.
func (h *Harness) RunSetting(s Setting) (*fl.Result, error) {
	cfg, spec, locals, test, err := h.job(s)
	if err != nil {
		return nil, err
	}
	if cfg.NeedsWire() {
		return simnet.RunLocal(cfg, spec, locals, test)
	}
	sim, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// MuGrid is the paper's FedProx tuning grid.
var MuGrid = []float64{0.001, 0.01, 0.1, 1}

// RunTrials executes the setting h.opt.Trials times with distinct seeds
// and returns each trial's final accuracy. When TuneMu is set and the
// setting runs FedProx, the whole trial set is repeated for each mu in
// MuGrid and the best-by-mean grid point is reported — the paper's Table
// III protocol.
func (h *Harness) RunTrials(s Setting) ([]float64, error) {
	if h.opt.TuneMu && s.Algorithm == fl.FedProx {
		var best []float64
		bestMean := -1.0
		for _, mu := range MuGrid {
			s.Mu = mu
			accs, err := h.runTrialsOnce(s)
			if err != nil {
				return nil, err
			}
			var sum float64
			for _, a := range accs {
				sum += a
			}
			if mean := sum / float64(len(accs)); mean > bestMean {
				bestMean, best = mean, accs
			}
		}
		return best, nil
	}
	return h.runTrialsOnce(s)
}

// runTrialsOnce executes the setting's trials, up to opt.Concurrency at a
// time. Trial seeds are fixed up front, so the result set is identical
// whatever the concurrency — concurrent Simulations are deterministic and
// fully isolated (per-model compute budgets, no shared mutable state).
func (h *Harness) runTrialsOnce(s Setting) ([]float64, error) {
	accs := make([]float64, h.opt.Trials)
	errs := make([]error, h.opt.Trials)
	var wg sync.WaitGroup
	sem := make(chan struct{}, h.opt.Concurrency)
	for trial := 0; trial < h.opt.Trials; trial++ {
		st := s
		st.Seed = h.opt.Seed + uint64(trial)*1000003
		wg.Add(1)
		go func(trial int, st Setting) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := h.RunSetting(st)
			if err != nil {
				errs[trial] = err
				return
			}
			accs[trial] = res.FinalAccuracy
		}(trial, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return accs, nil
}

// AccuracyCurve extracts the evaluated accuracy series from a result.
func AccuracyCurve(res *fl.Result) []float64 {
	out := make([]float64, 0, len(res.Curve))
	for _, m := range res.Curve {
		out = append(out, m.TestAccuracy)
	}
	return out
}
