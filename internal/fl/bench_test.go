package fl

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// benchDataset builds a deterministic synthetic image dataset for training
// benchmarks.
func benchDataset(n int) *data.Dataset {
	featLen := 3 * 16 * 16
	ds := &data.Dataset{
		Name:        "bench",
		X:           make([]float64, n*featLen),
		Y:           make([]int, n),
		FeatLen:     featLen,
		SampleShape: []int{3, 16, 16},
		NumClasses:  10,
	}
	r := rng.New(99)
	for i := range ds.X {
		ds.X[i] = r.Normal()
	}
	for i := range ds.Y {
		ds.Y[i] = i % 10
	}
	return ds
}

// BenchmarkLocalTrainStep measures one client's TrainStream call: a full
// local epoch of mini-batch SGD on the paper's CNN (128 samples, batch 32,
// so 4 optimizer steps per op). This is the end-to-end hot path every
// federated round multiplies by parties*epochs.
func benchLocalTrainStep(b *testing.B, dt tensor.DType) {
	ds := benchDataset(128)
	spec := nn.ModelSpec{Kind: nn.KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10, DType: dt}
	cfg, err := Config{
		Algorithm:   FedAvg,
		LocalEpochs: 1,
		BatchSize:   32,
		LR:          0.01,
		Momentum:    0.9,
		DType:       dt,
	}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(7)
	client := NewClient(0, ds, spec, root.Split())
	global := nn.Build(spec, root.Split()).State()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.TrainStream(global, nil, cfg).Release()
	}
}

func BenchmarkLocalTrainStep(b *testing.B) {
	benchLocalTrainStep(b, tensor.Float64)
}

// BenchmarkLocalTrainStep32 is the same client epoch on the float32
// backend; the issue-tracking target is >= 1.6x over the float64 run.
func BenchmarkLocalTrainStep32(b *testing.B) {
	benchLocalTrainStep(b, tensor.Float32)
}

// BenchmarkRoundParties measures whole communication rounds (sampling,
// concurrent local training under per-client compute budgets, streaming
// aggregation) as the federation scales: rounds/sec vs parties. On a
// many-core host the budgets should keep per-round time roughly flat up
// to parties ≈ cores.
func BenchmarkRoundParties(b *testing.B) {
	for _, parties := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("parties=%d", parties), func(b *testing.B) {
			per := 64
			locals := make([]*data.Dataset, parties)
			for i := range locals {
				locals[i] = benchDataset(per)
			}
			spec := nn.ModelSpec{Kind: nn.KindMLP, InputDim: locals[0].FeatLen, Classes: 10}
			cfg := Config{
				Algorithm:   FedAvg,
				Rounds:      1,
				LocalEpochs: 1,
				BatchSize:   32,
				LR:          0.01,
				Seed:        5,
			}
			sim, err := NewSimulation(cfg, spec, locals, nil)
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

// BenchmarkRoundCheckpoint measures the cost a durable federation pays at
// every round boundary with -checkpoint-every 1: capturing the engine
// snapshot (which borrows the model + optimizer state), encoding it with
// the CRC trailer, and writing it crash-safely (temp file, fsync, atomic
// rename). The state sizes bracket the models in this repo — the MLP is
// tens of KB, the CNN hundreds — so the fsync floor and the O(state)
// encode cost are both visible.
func BenchmarkRoundCheckpoint(b *testing.B) {
	for _, paramLen := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("state=%d", paramLen), func(b *testing.B) {
			r := rng.New(11)
			state := make([]float64, paramLen)
			control := make([]float64, paramLen)
			for i := range state {
				state[i] = r.Normal()
				control[i] = r.Normal()
			}
			server := NewServer(Config{Algorithm: Scaffold}, state, paramLen, 8)
			eng := &Engine{cfg: Config{Algorithm: Scaffold, Rounds: 100}, server: server, r: rng.New(12), numParties: 8}
			curve := make([]RoundMetrics, 20)
			for i := range curve {
				curve[i] = RoundMetrics{Round: i, TestAccuracy: 0.5, TrainLoss: 1.2,
					CommBytes: int64(paramLen) * 32, Sampled: []int{0, 1, 2, 3, 4, 5, 6, 7}}
			}
			dir := b.TempDir()
			path := filepath.Join(dir, SnapshotFileName)
			snap := eng.Snapshot(20, curve, 0.5, 1<<20, time.Second)
			b.SetBytes(int64(len(EncodeSnapshot(snap))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := eng.Snapshot(20, curve, 0.5, 1<<20, time.Second)
				if err := WriteSnapshotFile(path, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
