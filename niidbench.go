// Package niidbench is the public API of this NIID-Bench reproduction: the
// data partitioning strategies, synthetic dataset families, federated
// learning algorithms (FedAvg, FedProx, SCAFFOLD, FedNova) and experiment
// harness from "Federated Learning on Non-IID Data Silos: An Experimental
// Study" (Li, Diao, Chen, He — ICDE 2022).
//
// Quick start:
//
//	train, test, _ := niidbench.LoadDataset("cifar10", niidbench.DataConfig{})
//	strat := niidbench.Strategy{Kind: niidbench.LabelDirichlet, Beta: 0.5}
//	result, _ := niidbench.RunFederated(niidbench.RunConfig{
//		Algorithm: niidbench.FedProx, Rounds: 20, Mu: 0.01,
//	}, "cifar10", strat, 10, train, test)
//	fmt.Println(result.FinalAccuracy)
//
// # Choosing a compute dtype
//
// Local training runs in float64 by default. Setting RunConfig.DType to
// Float32 switches every party's model — parameters, gradients, layer
// scratch and optimizer state — onto the float32 kernel set, which packs
// GEMM operands into tile-major panels for 8-lane SIMD and roughly halves
// local-training time (see BENCH_tensor.json). Server-side aggregation,
// checkpoints and all exchanged state vectors stay float64 in either
// mode, so accuracies are directly comparable; on the benchmark configs
// the float32 backend lands within 1e-2 of the float64 run:
//
//	result, _ := niidbench.RunFederated(niidbench.RunConfig{
//		Algorithm: niidbench.FedAvg, Rounds: 20, DType: niidbench.Float32,
//	}, "cifar10", strat, 10, train, test)
//
// # Which runner
//
// RunFederated picks the runner from the config: one that needs a wire
// (RunConfig.NeedsWire — AsyncBuffer > 0, or a Codec other than f64)
// federates over in-process transport pipes, where frames are really
// encoded and counted; every other config is the lockstep simulation. The
// niidbench CLI and the experiment harness apply the same predicate.
//
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface a downstream user needs.
package niidbench

import (
	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/experiments"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Dataset is an in-memory labelled dataset.
type Dataset = data.Dataset

// DataConfig controls dataset generation (sizes, seed, writers).
type DataConfig = data.Config

// Strategy is a fully specified non-IID partitioning strategy.
type Strategy = partition.Strategy

// Partition maps each party to its local sample indices.
type Partition = partition.Partition

// PartitionStats summarizes a partition (per-party class counts and
// imbalance measures).
type PartitionStats = partition.Stats

// The six partitioning strategy kinds plus the IID baseline.
const (
	Homogeneous      = partition.Homogeneous
	LabelQuantity    = partition.LabelQuantity
	LabelDirichlet   = partition.LabelDirichlet
	FeatureNoise     = partition.FeatureNoise
	FeatureSynthetic = partition.FeatureSynthetic
	FeatureRealWorld = partition.FeatureRealWorld
	Quantity         = partition.Quantity
)

// Algorithm identifies a federated optimization algorithm.
type Algorithm = fl.Algorithm

// The four studied algorithms plus the Section III-D extensions.
const (
	FedAvg   = fl.FedAvg
	FedProx  = fl.FedProx
	Scaffold = fl.Scaffold
	FedNova  = fl.FedNova
	FedDyn   = fl.FedDyn
	Moon     = fl.Moon
)

// RunConfig holds the federated training hyper-parameters, including the
// extension knobs: server optimizers (FedOpt), stratified sampling, DP
// gradient sanitization, top-k update compression and the compute DType.
type RunConfig = fl.Config

// DType selects the local-training compute precision (see RunConfig.DType
// and the package example above).
type DType = tensor.DType

// The two compute backends: Float64 is the default and the reference;
// Float32 is the fast path (twice the SIMD lanes, half the memory traffic).
const (
	Float64 = tensor.Float64
	Float32 = tensor.Float32
)

// ParseDType maps "float64"/"f64"/"" and "float32"/"f32" to a DType; ok is
// false for anything else. Used by the CLI's -dtype flag.
func ParseDType(s string) (DType, bool) { return tensor.ParseDType(s) }

// Party sampling strategies for partial participation.
const (
	SampleRandom     = fl.SampleRandom
	SampleStratified = fl.SampleStratified
)

// Server-side optimizers (FedOpt family).
const (
	ServerSGD      = fl.ServerSGD
	ServerMomentum = fl.ServerMomentum
	ServerAdam     = fl.ServerAdam
)

// Result summarizes a federated run (final accuracy, per-round curve,
// communication and computation costs).
type Result = fl.Result

// AsyncStats summarizes a buffered-async run: how many updates were
// folded and how stale they were (see Result.Async; nil on sync runs).
type AsyncStats = fl.AsyncStats

// ModelSpec describes a model architecture and input geometry.
type ModelSpec = nn.ModelSpec

// DatasetNames lists the nine benchmark dataset families.
func DatasetNames() []string { return data.Names() }

// LoadDataset generates the named synthetic dataset family's train/test
// splits. Zero-valued config fields use the family defaults.
func LoadDataset(name string, cfg DataConfig) (train, test *Dataset, err error) {
	return data.Load(name, cfg)
}

// DefaultModel returns the paper's model choice for a dataset: the 2-conv
// CNN for image families, the 32/16/8 MLP for tabular ones.
func DefaultModel(name string) (ModelSpec, error) { return data.Model(name) }

// Split partitions train across the given number of parties using the
// strategy, returning the index assignment and the materialized per-party
// datasets (with feature noise applied where the strategy requires it).
func Split(strat Strategy, train *Dataset, parties int, seed uint64) (Partition, []*Dataset, error) {
	return strat.Split(train, parties, rng.New(seed))
}

// StatsOf computes partition statistics for reporting.
func StatsOf(p Partition, labels []int, classes int) PartitionStats {
	return partition.ComputeStats(p, labels, classes)
}

// RunFederated partitions train with the strategy — over the party count
// the strategy runs with, which is 4 for FeatureSynthetic whatever is
// asked — and runs the configured federated algorithm, evaluating on test
// each round. This is the public API's partition-seed rule; the CLI
// binaries and the experiment harness each have their own (see README).
func RunFederated(cfg RunConfig, dataset string, strat Strategy, parties int, train, test *Dataset) (*Result, error) {
	_, locals, err := strat.Split(train, strat.Parties(parties), rng.New(cfg.Seed+0x9e37))
	if err != nil {
		return nil, err
	}
	spec, err := data.Model(dataset)
	if err != nil {
		return nil, err
	}
	return RunFederatedWithSpec(cfg, spec, locals, test)
}

// RunFederatedWithSpec is RunFederated for custom models and pre-split
// local datasets.
//
// A config that needs a wire (RunConfig.NeedsWire: AsyncBuffer > 0, or a
// Codec other than f64) runs over in-process transport pipes, where frames
// are really encoded and counted; every other config runs the lockstep
// in-process simulation. Under AsyncBuffer > 0 parties train and stream
// continuously, the server folds each update the moment it arrives
// (discounted by staleness, s(tau) = 1/(1+tau)^0.5) and publishes a new
// global model every AsyncBuffer folds; the Result then carries one Curve
// entry per model generation plus AsyncStats.
func RunFederatedWithSpec(cfg RunConfig, spec ModelSpec, locals []*Dataset, test *Dataset) (*Result, error) {
	return simnet.Run(cfg, spec, locals, test)
}

// ExperimentOptions configures a paper-artifact reproduction run.
type ExperimentOptions = experiments.Options

// Experiment scales.
const (
	ScaleSmoke = experiments.Smoke
	ScaleQuick = experiments.Quick
	ScalePaper = experiments.Paper
)

// RunExperiment regenerates one of the paper's tables or figures by ID
// (e.g. "table3", "fig8"); see ExperimentIDs.
func RunExperiment(id string, opt ExperimentOptions) error {
	return experiments.Run(id, opt)
}

// ExperimentIDs lists every registered paper artifact.
func ExperimentIDs() []string {
	all := experiments.All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// SaveModel checkpoints a trained global model state to path, crash-safely,
// as a federation snapshot carrying only the state. Obtain the state from
// a Result's simulation or build one with DefaultModel.
func SaveModel(path string, state []float64) error {
	return fl.WriteSnapshotFile(path, &fl.FederationSnapshot{State: state})
}

// LoadModel reads the model state of a file written by SaveModel — or of
// any federation snapshot (a fedserver's federation.snap). A damaged file
// is refused with a *fl.CorruptSnapshotError.
func LoadModel(path string) ([]float64, error) {
	snap, err := fl.LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return snap.State, nil
}
