// Command niidbench reproduces the tables and figures of "Federated
// Learning on Non-IID Data Silos: An Experimental Study" (ICDE 2022) and
// exposes the benchmark's pieces for ad-hoc runs.
//
// Usage:
//
//	niidbench list                          # list reproducible artifacts
//	niidbench table3 [-scale quick] [...]   # regenerate a table/figure
//	niidbench all [-scale quick]            # regenerate everything
//	niidbench run -dataset cifar10 -partition label-dirichlet -beta 0.5 \
//	    -algo scaffold -parties 10 -rounds 50    # one ad-hoc federated run
//	niidbench partition-stats -dataset mnist -partition label-quantity -k 2
//	niidbench datasets                      # dataset inventory (Table II)
//
// Scales: smoke (seconds), quick (default, minutes), paper (the paper's
// settings; hours of CPU).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/experiments"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
	"github.com/niid-bench/niidbench/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "niidbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "help", "-h", "--help":
		usage()
		return nil
	case "list":
		return cmdList()
	case "datasets":
		return experiments.Run("table2", experiments.Options{Scale: experiments.Quick, Out: os.Stdout})
	case "all":
		return cmdAll(rest)
	case "run":
		return cmdRun(rest)
	case "partition-stats":
		return cmdPartitionStats(rest)
	default:
		if _, err := experiments.Get(cmd); err == nil {
			return cmdExperiment(cmd, rest)
		}
		return fmt.Errorf("unknown command %q (try `niidbench list`)", cmd)
	}
}

func usage() {
	fmt.Println(`niidbench — NIID-Bench reproduction (ICDE 2022)

commands:
  list                 list reproducible paper artifacts
  datasets             dataset inventory (Table II)
  <artifact-id>        regenerate one artifact, e.g. table3, fig8
  all                  regenerate every artifact
  run                  one ad-hoc federated run
  partition-stats      show a partition's class/size distribution

common flags (artifact commands):
  -scale smoke|quick|paper   experiment scale (default quick)
  -seed N                    master seed
  -trials N                  trials per cell (default: scale's)
  -datasets a,b,c            restrict to these datasets
  -conc N                    concurrent grid cells (default 1)`)
}

func cmdList() error {
	tb := report.NewTable("Reproducible artifacts", "id", "title")
	for _, e := range experiments.All() {
		tb.AddRow(e.ID, e.Title)
	}
	tb.Render(os.Stdout)
	return nil
}

// expFlags parses the shared experiment flags.
func expFlags(name string, args []string) (experiments.Options, error) {
	fs, options := expCommand(name)
	if err := fs.Parse(args); err != nil {
		return experiments.Options{}, err
	}
	return options()
}

// expCommand declares the artifact commands' flags and returns them with
// the options they describe once parsed.
func expCommand(name string) (*flag.FlagSet, func() (experiments.Options, error)) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	scale := fs.String("scale", "quick", "experiment scale: smoke, quick, paper")
	seed := fs.Uint64("seed", 1, "master seed")
	trials := fs.Int("trials", 0, "trials per setting (0 = scale default)")
	datasets := fs.String("datasets", "", "comma-separated dataset filter")
	conc := fs.Int("conc", 1, "concurrent grid cells (trials) per experiment")
	return fs, func() (experiments.Options, error) {
		opt := experiments.Options{
			Scale:       experiments.Scale(*scale),
			Seed:        *seed,
			Trials:      *trials,
			Out:         os.Stdout,
			Concurrency: *conc,
		}
		if *datasets != "" {
			opt.Datasets = strings.Split(*datasets, ",")
		}
		switch opt.Scale {
		case experiments.Smoke, experiments.Quick, experiments.Paper:
		default:
			return opt, fmt.Errorf("unknown scale %q", *scale)
		}
		return opt, nil
	}
}

func cmdExperiment(id string, args []string) error {
	opt, err := expFlags(id, args)
	if err != nil {
		return err
	}
	return experiments.Run(id, opt)
}

func cmdAll(args []string) error {
	opt, err := expFlags("all", args)
	if err != nil {
		return err
	}
	for _, e := range experiments.All() {
		if err := experiments.Run(e.ID, opt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println()
	}
	return nil
}

// parseStrategy builds a partition.Strategy from flag values.
func parseStrategy(kind string, k int, beta, sigma float64) (partition.Strategy, error) {
	s := partition.Strategy{Kind: partition.Kind(kind), K: k, Beta: beta}
	if s.Kind == partition.FeatureNoise {
		s.NoiseSigma = sigma
	}
	switch s.Kind {
	case partition.Homogeneous, partition.LabelQuantity, partition.LabelDirichlet,
		partition.FeatureNoise, partition.FeatureSynthetic, partition.FeatureRealWorld,
		partition.Quantity:
		return s, nil
	}
	return s, fmt.Errorf("unknown partition kind %q (iid, label-quantity, label-dirichlet, feature-noise, feature-synthetic, feature-realworld, quantity)", kind)
}

func cmdRun(args []string) error {
	fs, body := runCommand()
	if err := fs.Parse(args); err != nil {
		return err
	}
	return body()
}

// runCommand declares `run`'s flags and returns them with the run that
// reads them once parsed.
func runCommand() (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	dataset := fs.String("dataset", "cifar10", "dataset family")
	partKind := fs.String("partition", "iid", "partition kind")
	k := fs.Int("k", 2, "classes per party for label-quantity")
	beta := fs.Float64("beta", 0.5, "Dirichlet concentration")
	sigma := fs.Float64("sigma", 0.1, "noise level for feature-noise (also mixes with other kinds when >0 and -mix is set)")
	mix := fs.Bool("mix", false, "add feature noise on top of the chosen partition (mixed skew)")
	algo := fs.String("algo", "fedavg", "fedavg, fedprox, scaffold, fednova, feddyn, moon")
	parties := fs.Int("parties", 10, "number of parties")
	rounds := fs.Int("rounds", 10, "communication rounds")
	epochs := fs.Int("epochs", 3, "local epochs")
	batch := fs.Int("batch", 32, "batch size")
	lr := fs.Float64("lr", 0.01, "learning rate")
	mu := fs.Float64("mu", 0.01, "FedProx mu")
	fraction := fs.Float64("fraction", 1, "party sample fraction")
	trainN := fs.Int("train", 0, "training samples (0 = family default)")
	testN := fs.Int("test", 0, "test samples (0 = family default)")
	seed := fs.Uint64("seed", 1, "seed")
	useTCP := fs.Bool("tcp", false, "run the federation over local TCP sockets instead of in-process")
	alpha := fs.Float64("alpha", 0.01, "FedDyn alpha")
	moonMu := fs.Float64("moon-mu", 1, "MOON contrastive weight")
	serverOpt := fs.String("server-opt", "sgd", "server optimizer: sgd, momentum, adam")
	sampling := fs.String("sampling", "random", "party sampling under partial participation: random, stratified")
	dpClip := fs.Float64("dp-clip", 0, "DP gradient clipping bound (0 = off)")
	dpNoise := fs.Float64("dp-noise", 0, "DP noise multiplier (std = noise*clip/batch)")
	topK := fs.Float64("compress", 0, "top-k update compression: fraction of delta entries kept (0 = off)")
	saveModel := fs.String("save-model", "", "write the final global model state to this file")
	loadModel := fs.String("load-model", "", "initialize the global model from this checkpoint")
	dtypeName := fs.String("dtype", "float64", "local-training compute precision: float64 or float32 (SIMD fast path)")
	chunk := fs.Int("chunk", 65536, "move broadcasts and updates in frames of this many float64 elements (0 = one frame per vector); bit-identical either way")
	asyncBuffer := fs.Int("async-buffer", 0, "buffered-async aggregation over loopback TCP: fold updates as they arrive and publish a new global every M folds (0 = synchronous rounds)")
	codec := fs.String("codec", "", "wire chunk codec over transports: f64 (raw, default), f32, int8, int4; negotiated per party at the hello")
	return fs, func() error {
		dtype, ok := tensor.ParseDType(*dtypeName)
		if !ok {
			return fmt.Errorf("unknown -dtype %q (float64, float32)", *dtypeName)
		}

		strat, err := parseStrategy(*partKind, *k, *beta, *sigma)
		if err != nil {
			return err
		}
		if *mix && strat.Kind != partition.FeatureNoise {
			strat.NoiseSigma = *sigma
		}
		train, test, err := data.Load(*dataset, data.Config{TrainN: *trainN, TestN: *testN, Seed: *seed})
		if err != nil {
			return err
		}
		spec, err := data.Model(*dataset)
		if err != nil {
			return err
		}
		_, locals, err := strat.Split(train, *parties, rng.New(*seed+17))
		if err != nil {
			return err
		}
		cfg := fl.Config{
			Algorithm:       fl.Algorithm(*algo),
			Rounds:          *rounds,
			LocalEpochs:     *epochs,
			BatchSize:       *batch,
			LR:              *lr,
			Momentum:        0.9,
			Mu:              *mu,
			Alpha:           *alpha,
			MoonMu:          *moonMu,
			SampleFraction:  *fraction,
			Seed:            *seed,
			ServerOptimizer: fl.ServerOpt(*serverOpt),
			Sampling:        fl.PartySampling(*sampling),
			DPClip:          *dpClip,
			DPNoise:         *dpNoise,
			CompressTopK:    *topK,
			DType:           dtype,
			ChunkSize:       *chunk,
			AsyncBuffer:     *asyncBuffer,
			Codec:           fl.Codec(*codec),
		}
		var initial []float64
		if *loadModel != "" {
			snap, err := fl.LoadSnapshotFile(*loadModel)
			if err != nil {
				return err
			}
			initial = snap.State
			fmt.Printf("resumed from %s\n", *loadModel)
		}
		var res *fl.Result
		if *useTCP || *asyncBuffer > 0 {
			// Buffered-async aggregation is a transport-level protocol; the
			// in-process lockstep Simulation has no notion of it, so it runs
			// over the sockets too.
			var partyErrs []error
			res, partyErrs, err = simnet.RunLoopback(cfg, spec, locals, test, simnet.ServerOptions{InitialState: initial}, nil)
			err = errors.Join(err, errors.Join(partyErrs...))
		} else {
			var sim *fl.Simulation
			if sim, err = fl.NewSimulation(cfg, spec, locals, test); err != nil {
				return err
			}
			if initial != nil {
				if err = sim.SetInitialState(initial); err != nil {
					return err
				}
			}
			res, err = sim.Run()
		}
		if err != nil {
			return err
		}
		printResult(*dataset, strat, res)
		if *saveModel != "" {
			if err := fl.WriteSnapshotFile(*saveModel, &fl.FederationSnapshot{State: res.FinalState}); err != nil {
				return err
			}
			fmt.Printf("model state saved to %s\n", *saveModel)
		}
		return nil
	}
}

func printResult(dataset string, strat partition.Strategy, res *fl.Result) {
	fmt.Printf("dataset=%s partition=%s algorithm=%s\n", dataset, strat, res.Config.Algorithm)
	fmt.Printf("parameters=%d state=%d\n", res.ParamCount, res.StateCount)
	var accs []float64
	for _, m := range res.Curve {
		accs = append(accs, m.TestAccuracy)
	}
	fmt.Println(report.Curve("test accuracy", accs))
	fmt.Printf("final accuracy: %s (best %s)\n", report.Percent(res.FinalAccuracy), report.Percent(res.BestAccuracy))
	fmt.Printf("communication: %s/round, %s total\n", report.Bytes(res.CommBytesPerRound), report.Bytes(float64(res.TotalCommBytes)))
	fmt.Printf("computation: %v total\n", res.ComputeTime)
	if res.Async != nil {
		fmt.Printf("async: %d folds over %d generations, staleness mean %.2f max %d\n",
			res.Async.Folds, len(res.Curve), res.Async.MeanStaleness, res.Async.MaxStaleness)
	}
}

func cmdPartitionStats(args []string) error {
	fs, body := partitionStatsCommand()
	if err := fs.Parse(args); err != nil {
		return err
	}
	return body()
}

func partitionStatsCommand() (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("partition-stats", flag.ContinueOnError)
	dataset := fs.String("dataset", "mnist", "dataset family")
	partKind := fs.String("partition", "label-dirichlet", "partition kind")
	k := fs.Int("k", 2, "classes per party for label-quantity")
	beta := fs.Float64("beta", 0.5, "Dirichlet concentration")
	sigma := fs.Float64("sigma", 0.1, "noise level")
	parties := fs.Int("parties", 10, "number of parties")
	trainN := fs.Int("train", 0, "training samples")
	seed := fs.Uint64("seed", 1, "seed")
	return fs, func() error {
		strat, err := parseStrategy(*partKind, *k, *beta, *sigma)
		if err != nil {
			return err
		}
		train, _, err := data.Load(*dataset, data.Config{TrainN: *trainN, Seed: *seed})
		if err != nil {
			return err
		}
		if strat.Kind == partition.FeatureSynthetic {
			*parties = 4
		}
		part, err := strat.Assign(train, *parties, rng.New(*seed+17))
		if err != nil {
			return err
		}
		st := partition.ComputeStats(part, train.Y, train.NumClasses)
		fmt.Printf("%s, %s, %d parties\n\n", *dataset, strat, *parties)
		fmt.Print(st.Heatmap())
		fmt.Printf("\nlabel imbalance (mean JS divergence): %.4f\n", st.LabelImbalance)
		fmt.Printf("quantity imbalance (CV of sizes):     %.4f\n", st.QuantityImbalance)
		return nil
	}
}
