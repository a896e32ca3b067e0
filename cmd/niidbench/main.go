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

	"github.com/niid-bench/niidbench/internal/experiments"
	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
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
		return execute(rest, artifactCommand())
	case "run":
		return execute(rest, runCommand)
	case "partition-stats":
		return execute(rest, partitionStatsCommand)
	default:
		if _, err := experiments.Get(cmd); err == nil {
			return execute(rest, artifactCommand(cmd))
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
  -trials N                  seeds per cell of table3/table5 (default: scale's)
  -datasets a,b,c            filter a multi-dataset artifact; one value replaces
                             a single-dataset artifact's dataset
  -conc N                    concurrent cells per artifact (default 1)`)
}

func cmdList() error {
	tb := report.NewTable("Reproducible artifacts", "id", "title")
	for _, e := range experiments.All() {
		tb.AddRow(e.ID, e.Title)
	}
	tb.Render(os.Stdout)
	return nil
}

// artifactCommand declares the artifact commands' flags and returns them
// with the regeneration of the given artifacts — every registered one when
// none is given — in order.
func artifactCommand(ids ...string) func() (*flag.FlagSet, func() error) {
	return func() (*flag.FlagSet, func() error) {
		fs := flag.NewFlagSet("artifact", flag.ContinueOnError)
		opt := experiments.Options{Out: os.Stdout}
		fs.StringVar((*string)(&opt.Scale), "scale", "quick", "experiment scale: smoke, quick, paper")
		fs.Uint64Var(&opt.Seed, "seed", 1, "master seed")
		fs.IntVar(&opt.Trials, "trials", 0, "seeds averaged per cell of the mean±std tables, table3 and table5 (0 = scale default); figures are single runs")
		datasets := fs.String("datasets", "", "comma-separated dataset filter")
		fs.IntVar(&opt.Concurrency, "conc", 1, "concurrent cells per artifact")
		return fs, func() error {
			if *datasets != "" {
				opt.Datasets = strings.Split(*datasets, ",")
			}
			switch opt.Scale {
			case experiments.Smoke, experiments.Quick, experiments.Paper:
			default:
				return fmt.Errorf("unknown scale %q", opt.Scale)
			}
			if len(ids) == 0 {
				for _, e := range experiments.All() {
					ids = append(ids, e.ID)
				}
			}
			for i, id := range ids {
				if i > 0 {
					fmt.Println()
				}
				if err := experiments.Run(id, opt); err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
			}
			return nil
		}
	}
}

// execute parses args into a command's flags and runs its body.
func execute(args []string, command func() (*flag.FlagSet, func() error)) error {
	fs, body := command()
	if err := fs.Parse(args); err != nil {
		return err
	}
	return body()
}

// runCommand declares `run`'s flags — the shared job table with run's own
// defaults, the model files, and the fl.Config extensions only this
// command exposes — and returns them with the run that reads them once
// parsed.
func runCommand() (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	job := fedcli.Shared{Dataset: "cifar10", Partition: "iid", Parties: 10}
	var models fedcli.ModelFiles
	job.Register(fs, fedcli.Data, fedcli.Training)
	models.Register(fs)
	cfg := &job.Config
	fs.BoolVar(&job.Mix, "mix", false, "add -sigma feature noise on top of the chosen partition (mixed skew)")
	fs.Float64Var(&cfg.SampleFraction, "fraction", 1, "party sample fraction")
	fs.Float64Var(&cfg.Alpha, "alpha", 0.01, "FedDyn alpha")
	fs.Float64Var(&cfg.MoonMu, "moon-mu", 1, "MOON contrastive weight")
	fs.StringVar((*string)(&cfg.ServerOptimizer), "server-opt", "sgd", "server optimizer: sgd, momentum, adam")
	fs.StringVar((*string)(&cfg.Sampling), "sampling", "random", "party sampling under partial participation: random, stratified")
	fs.Float64Var(&cfg.DPClip, "dp-clip", 0, "DP gradient clipping bound (0 = off)")
	fs.Float64Var(&cfg.DPNoise, "dp-noise", 0, "DP noise multiplier (std = noise*clip/batch)")
	fs.Float64Var(&cfg.CompressTopK, "compress", 0, "top-k update compression: fraction of delta entries kept (0 = off)")
	dtypeName := fs.String("dtype", "float64", "local-training compute precision: float64 or float32 (SIMD fast path)")
	useTCP := fs.Bool("tcp", false, "federate over loopback TCP sockets instead of in-process (-async-buffer and any -codec but f64 do so by themselves)")
	return fs, func() error {
		var ok bool
		if cfg.DType, ok = tensor.ParseDType(*dtypeName); !ok {
			return fmt.Errorf("unknown -dtype %q (float64, float32)", *dtypeName)
		}
		res, err := federate(&job, &models, *useTCP)
		if err != nil {
			return err
		}
		job.PrintResult(os.Stdout, res)
		return models.Write(os.Stdout, res)
	}
}

// federate assembles the job and runs it on the runner it calls for: a
// wire (loopback TCP) when asked for or when the config needs one, the
// in-process simulation otherwise.
func federate(job *fedcli.Shared, models *fedcli.ModelFiles, useTCP bool) (*fl.Result, error) {
	cfg, spec, locals, test, err := job.Build()
	if err != nil {
		return nil, err
	}
	initial, err := models.Initial(os.Stdout)
	if err != nil {
		return nil, err
	}
	if useTCP || cfg.NeedsWire() {
		res, partyErrs, err := simnet.RunLoopback(cfg, spec, locals, test, simnet.ServerOptions{InitialState: initial}, nil)
		return res, errors.Join(err, errors.Join(partyErrs...))
	}
	sim, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		return nil, err
	}
	if initial != nil {
		if err := sim.SetInitialState(initial); err != nil {
			return nil, err
		}
	}
	return sim.Run()
}

// partitionStatsCommand declares the data slice of the job table with
// partition-stats' defaults and returns it with the report over the shards
// the job would train on.
func partitionStatsCommand() (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("partition-stats", flag.ContinueOnError)
	job := fedcli.Shared{Dataset: "mnist", Partition: "label-dirichlet", Parties: 10}
	job.Register(fs, fedcli.Data)
	return fs, func() error {
		_, _, locals, _, err := job.Build()
		if err != nil {
			return err
		}
		// Lay the shards end to end: party p owns the next len(shard)
		// indices of the concatenated labels.
		var labels []int
		part := make(partition.Partition, len(locals))
		for p, shard := range locals {
			for _, y := range shard.Y {
				part[p] = append(part[p], len(labels))
				labels = append(labels, y)
			}
		}
		st := partition.ComputeStats(part, labels, locals[0].NumClasses)
		fmt.Printf("%s, %s, %d parties\n\n", job.Dataset, job.Strategy(), len(locals))
		fmt.Print(st.Heatmap())
		fmt.Printf("\nlabel imbalance (mean JS divergence): %.4f\n", st.LabelImbalance)
		fmt.Printf("quantity imbalance (CV of sizes):     %.4f\n", st.QuantityImbalance)
		return nil
	}
}
