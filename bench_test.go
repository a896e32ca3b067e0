// Benchmarks that regenerate each of the paper's tables and figures at
// smoke scale, so `go test -bench=.` exercises every experiment path and
// reports its cost. For paper-shaped output, run the CLI instead:
//
//	go run ./cmd/niidbench table3 -scale quick
package niidbench

import (
	"io"
	"testing"

	"github.com/niid-bench/niidbench/internal/experiments"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
)

// benchDatasets restricts the artifacts whose default datasets are slow at
// bench time; the CLI regenerates them in full.
var benchDatasets = map[string][]string{
	"table3": {"adult"}, "table4": {"adult", "rcv1"}, "table5": {"adult"},
	"fig10": {"adult"}, "fig11": {"adult"}, "fig22": {"adult"}, "fig23": {"adult"},
	"fig24": {"mnist"}, "ablations": {"mnist"},
	"leaderboard": {"adult"}, "extensions": {"adult"}, "sampling": {"adult"},
	"codec": {"adult"}, "chaos": {"adult"}, "async": {"adult"},
}

// BenchmarkExperiments regenerates every registered paper artifact at smoke
// scale, one sub-benchmark per artifact ID.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			opt := experiments.Options{Scale: experiments.Smoke, Out: io.Discard, Seed: 1, Datasets: benchDatasets[e.ID]}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := experiments.Run(e.ID, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRound measures the cost of a single communication round per
// algorithm on the paper CNN — the unit of work every experiment repeats.
func BenchmarkRound(b *testing.B) {
	for _, algo := range []fl.Algorithm{fl.FedAvg, fl.FedProx, fl.Scaffold, fl.FedNova} {
		b.Run(string(algo), func(b *testing.B) {
			train, test, err := LoadDataset("mnist", DataConfig{TrainN: 300, TestN: 100, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			_, locals, err := Split(Strategy{Kind: partition.Homogeneous}, train, 4, 2)
			if err != nil {
				b.Fatal(err)
			}
			spec, err := DefaultModel("mnist")
			if err != nil {
				b.Fatal(err)
			}
			sim, err := fl.NewSimulation(fl.Config{
				Algorithm: algo, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
				LR: 0.01, Mu: 0.01, Seed: 3, EvalEvery: 1 << 30,
			}, spec, locals, test)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunRound(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
