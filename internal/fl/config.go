// Package fl implements the four federated-learning algorithms NIID-Bench
// compares — FedAvg, FedProx, SCAFFOLD and FedNova — over a pluggable
// party/server simulation with per-round accuracy curves, communication
// accounting and computation timing.
//
// The algorithms follow the paper's Algorithm 1 and Algorithm 2 exactly:
// every party performs E local epochs of mini-batch SGD starting from the
// round's global model and returns the model delta (and, for SCAFFOLD, a
// control-variate delta); the server aggregates deltas weighted by local
// dataset size (FedNova additionally normalizes by the local step count).
//
// A party's local update lives in one place, Client.TrainStream, for all
// six algorithms: E epochs over one batch iterator, each step forward,
// cross-entropy, BackwardParams, DP sanitization and the optimizer step,
// then one finish that forms the in-place delta and the per-algorithm
// state. FedProx, SCAFFOLD and FedDyn each set the optimizer's one
// Corrector for the round; MOON adds its contrastive gradient at the
// representation before the body's backward pass; FedNova trains like
// FedAvg. KeepBNStatsLocal applies to every algorithm, MOON included.
//
// The server aggregates with one rule and one ingest for both schedulers:
// every update arrives whole at the Server's fold, which checks its shape
// and adds its un-normalized weight; one normalizer (the folded weights'
// sum, divided once) and one apply step close the buffer. Only who
// decides when to apply differs. A synchronous round is a generation
// whose buffer is the sample: Server.BeginRound, then each update in
// sampled order through RoundSink.Fold (or RoundSink.Drop, whose weight
// is then never added), then FinishRound. The buffered-async scheduler
// folds through AsyncCoordinator.Fold and applies every AsyncBuffer folds.
// A run persists in one format, the FederationSnapshot; a model file is a
// snapshot carrying only its State.
package fl

import (
	"fmt"
	"runtime"
	"time"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Algorithm selects the federated optimization algorithm.
type Algorithm string

// The four algorithms studied by the paper.
const (
	FedAvg   Algorithm = "fedavg"
	FedProx  Algorithm = "fedprox"
	Scaffold Algorithm = "scaffold"
	FedNova  Algorithm = "fednova"
)

// Extension algorithms from the paper's Section III-D ("other studies"),
// which the paper leaves as future comparisons: FedDyn's dynamic
// regularization (reference [2]) and MOON's model-contrastive learning
// (reference [40]).
const (
	FedDyn Algorithm = "feddyn"
	Moon   Algorithm = "moon"
)

// Algorithms lists the studied algorithms in the paper's column order.
func Algorithms() []Algorithm {
	return []Algorithm{FedAvg, FedProx, Scaffold, FedNova}
}

// ExtendedAlgorithms lists the studied algorithms plus the Section III-D
// extensions implemented by this reproduction.
func ExtendedAlgorithms() []Algorithm {
	return []Algorithm{FedAvg, FedProx, Scaffold, FedNova, FedDyn, Moon}
}

// Codec selects the wire encoding of chunk-frame payloads on the simnet
// transports. The server's configured codec is negotiated per party at
// the hello: a peer that does not advertise it falls back to raw float64,
// so mixed fleets keep federating. Quantization is
// transport-only — the server accumulator, snapshots and every reported
// metric stay float64 — but lossy: int8/int4 runs trade accuracy for
// bytes and are not bitwise comparable to f64 runs.
type Codec string

// The chunk payload encodings (see internal/simnet quant.go for the
// exact formats and error bounds).
const (
	// CodecF64 is the raw float64 wire — byte-identical to the
	// pre-quantization protocol, lossless, the default and the
	// negotiation fallback.
	CodecF64 Codec = "f64"
	// CodecF32 narrows payload elements to IEEE-754 float32 (~2x fewer
	// bytes, relative error ≤ 2^-24).
	CodecF32 Codec = "f32"
	// CodecInt8 quantizes each chunk linearly to int8 with a per-chunk
	// scale (~8x fewer bytes, absolute error ≤ scale/2 per element).
	CodecInt8 Codec = "int8"
	// CodecInt4 quantizes each chunk to 4-bit integers packed two per
	// byte (~16x fewer bytes); the aggressive end of the
	// accuracy-vs-bytes trade.
	CodecInt4 Codec = "int4"
)

// ServerOpt selects the server-side optimizer applied to the aggregated
// pseudo-gradient (the FedOpt family; Reddi et al., reference [62]).
type ServerOpt string

// Server optimizer choices.
const (
	// ServerSGD applies the aggregated delta directly (the paper's setup).
	ServerSGD ServerOpt = "sgd"
	// ServerMomentum adds server-side momentum (FedAvgM).
	ServerMomentum ServerOpt = "momentum"
	// ServerAdam applies an Adam update to the pseudo-gradient (FedAdam).
	ServerAdam ServerOpt = "adam"
)

// ScaffoldVariant selects how SCAFFOLD updates the local control variate
// (Algorithm 2, line 23).
type ScaffoldVariant int

const (
	// ScaffoldGradient recomputes the full local gradient at the global
	// model (option i): more stable, more compute.
	ScaffoldGradient ScaffoldVariant = iota + 1
	// ScaffoldReuse reuses the accumulated update (option ii):
	// c* = c_i - c + (w^t - w_i^t)/(tau*eta). The paper's default.
	ScaffoldReuse
)

// Config holds every training hyper-parameter of a federated run. The
// defaults (applied by Normalize) match the paper: batch size 64, 10 local
// epochs, SGD momentum 0.9, full participation, 50 rounds.
type Config struct {
	Algorithm   Algorithm
	Rounds      int
	LocalEpochs int
	BatchSize   int
	LR          float64
	Momentum    float64
	// Mu is FedProx's proximal weight; ignored by other algorithms.
	Mu float64
	// SampleFraction is the fraction of parties selected each round
	// (1 = full participation, the paper's default).
	SampleFraction float64
	// Variant selects SCAFFOLD's control-variate update rule.
	Variant ScaffoldVariant
	// ServerLR is the server-side step applied to the aggregated delta.
	ServerLR float64
	// Seed drives party sampling, batch shuffling and model init.
	Seed uint64
	// Parallelism bounds how many parties train concurrently within a
	// round (simulation-level only; it does not change the math).
	Parallelism int
	// EvalEvery evaluates test accuracy every k rounds (default 1).
	EvalEvery int
	// KeepBNStatsLocal, when true, excludes batch-norm running statistics
	// from aggregation (the FedBN-style fix discussed in Section VI-B);
	// the default is the paper's plain averaging of the full state.
	KeepBNStatsLocal bool
	// Unweighted averages the deltas with equal weights instead of
	// weighting them by local dataset size (the paper's setting); it is an
	// ablation.
	Unweighted bool
	// Alpha is FedDyn's regularization weight; ignored by other
	// algorithms.
	Alpha float64
	// MoonMu weighs MOON's model-contrastive loss; ignored by other
	// algorithms.
	MoonMu float64
	// ServerOptimizer selects how the server applies the aggregated
	// pseudo-gradient (default plain SGD, the paper's setup).
	ServerOptimizer ServerOpt
	// Sampling selects the party-sampling strategy under partial
	// participation (default uniform random, the paper's setting;
	// stratified is the Section VI-A future-direction extension).
	Sampling PartySampling
	// DPClip, when positive, clips each mini-batch's parameter gradient to
	// this L2 norm; DPNoise adds Gaussian noise with standard deviation
	// DPNoise*DPClip/batch per coordinate (DP-SGD-style sanitization, no
	// accountant).
	DPClip  float64
	DPNoise float64
	// CompressTopK, in (0,1), keeps only that fraction of the largest-
	// magnitude parameter-delta entries per upload (top-k gradient
	// compression). 0 disables compression.
	CompressTopK float64
	// ChunkSize is the wire's frame size: over the simnet transports model
	// state moves in frames of at most this many float64 elements, in both
	// directions (client updates up, the server's round broadcast down).
	// The in-process simulation has no wire and ignores it. 0 means one
	// frame per vector. It picks a size, never a code path: the
	// arithmetic is bit-identical at every value, and every value gets the
	// same eviction, rejoin and drop-and-renormalise handling. What a
	// smaller frame buys is memory and pacing: a frame is the unit a
	// sender serializes, a receiver bounds (SetRecvLimit) and a quantized
	// codec scales. The server's value is authoritative — it rides each
	// round's broadcast, so parties follow the server's setting.
	ChunkSize int
	// AsyncBuffer, when positive, switches the simnet transports from
	// lockstep rounds to buffered-asynchronous aggregation: the server
	// folds updates the moment they arrive — each weighted by a staleness
	// discount keyed to the model generation the party trained against —
	// and mints a new global generation every AsyncBuffer folds instead of
	// barriering on the whole sample. Stragglers then cost only their own
	// updates' freshness, never the round clock. Asynchronous runs are NOT
	// bitwise reproducible (arrival order is scheduling-dependent); they
	// are characterized statistically, accuracy-vs-generations and
	// accuracy-vs-wall-clock. 0 (the default) keeps synchronous rounds,
	// which remain bitwise pinned. SampleFraction is ignored in async mode:
	// every live party trains continuously.
	AsyncBuffer int
	// Codec selects the chunk-frame payload encoding on the simnet
	// transports (default CodecF64, the raw lossless wire). The frame is
	// the quantization unit — one scale per frame, so ChunkSize also sets
	// the quantization granularity — and the codec is negotiated per party
	// at the hello with raw float64 as the fallback. See the Codec type.
	Codec Codec
	// MinParties is the round quorum under elastic membership: while the
	// live party set (alive + rejoined, excluding suspects and evicted
	// parties) is smaller than this, the transport waits for parties to
	// rejoin instead of running degenerate or aborting the federation.
	// Default 1 — any live party keeps rounds closing. Only meaningful on
	// transports with churn (the simnet federation); the in-process
	// simulation's membership is fixed.
	MinParties int
	// QuorumWait bounds that wait (default 30s): it runs from a round's
	// first attempt that came up short — too few live parties, or every
	// update lost — and once it is spent the run ends with a typed
	// *QuorumError.
	QuorumWait time.Duration
	// DType selects the local-training compute backend: tensor.Float64
	// (the default) or tensor.Float32, which halves kernel memory traffic
	// and doubles SIMD width. Aggregation, the exchanged state vectors and
	// every reported metric stay float64 either way, so runs are directly
	// comparable across backends.
	DType tensor.DType
}

// Normalize fills zero fields with the paper's defaults and validates the
// result.
func (c Config) Normalize() (Config, error) {
	if c.Algorithm == "" {
		c.Algorithm = FedAvg
	}
	switch c.Algorithm {
	case FedAvg, FedProx, Scaffold, FedNova, FedDyn, Moon:
	default:
		return c, fmt.Errorf("fl: unknown algorithm %q", c.Algorithm)
	}
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.LocalEpochs <= 0 {
		c.LocalEpochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.Momentum < 0 {
		return c, fmt.Errorf("fl: negative momentum %v", c.Momentum)
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.SampleFraction <= 0 || c.SampleFraction > 1 {
		if c.SampleFraction == 0 {
			c.SampleFraction = 1
		} else {
			return c, fmt.Errorf("fl: sample fraction %v outside (0,1]", c.SampleFraction)
		}
	}
	if c.Variant == 0 {
		c.Variant = ScaffoldReuse
	}
	if c.ServerLR == 0 {
		c.ServerLR = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.Mu < 0 {
		return c, fmt.Errorf("fl: negative mu %v", c.Mu)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.Alpha < 0 {
		return c, fmt.Errorf("fl: negative alpha %v", c.Alpha)
	}
	if c.MoonMu == 0 {
		c.MoonMu = 1
	}
	if c.ServerOptimizer == "" {
		c.ServerOptimizer = ServerSGD
	}
	switch c.ServerOptimizer {
	case ServerSGD, ServerMomentum, ServerAdam:
	default:
		return c, fmt.Errorf("fl: unknown server optimizer %q", c.ServerOptimizer)
	}
	if c.Sampling == "" {
		c.Sampling = SampleRandom
	}
	if c.DPClip < 0 || c.DPNoise < 0 {
		return c, fmt.Errorf("fl: negative DP parameter (clip %v, noise %v)", c.DPClip, c.DPNoise)
	}
	if c.CompressTopK < 0 || c.CompressTopK >= 1 {
		if c.CompressTopK != 0 {
			return c, fmt.Errorf("fl: CompressTopK %v outside (0,1)", c.CompressTopK)
		}
	}
	switch c.Sampling {
	case SampleRandom, SampleStratified:
	default:
		return c, fmt.Errorf("fl: unknown sampling strategy %q", c.Sampling)
	}
	if c.ChunkSize < 0 {
		return c, fmt.Errorf("fl: negative chunk size %d", c.ChunkSize)
	}
	if c.MinParties < 0 {
		return c, fmt.Errorf("fl: negative quorum %d", c.MinParties)
	}
	if c.MinParties == 0 {
		c.MinParties = 1
	}
	if c.AsyncBuffer < 0 {
		return c, fmt.Errorf("fl: negative async buffer %d", c.AsyncBuffer)
	}
	if c.Codec == "" {
		c.Codec = CodecF64
	}
	switch c.Codec {
	case CodecF64, CodecF32, CodecInt8, CodecInt4:
	default:
		return c, fmt.Errorf("fl: unknown codec %q", c.Codec)
	}
	if (c.Codec == CodecInt8 || c.Codec == CodecInt4) && c.CompressTopK > 0 {
		// Top-k uploads keep only the largest-magnitude entries, so the
		// per-chunk scale is set by the extreme survivors and every small
		// kept entry quantizes to zero or near it — the sparse upload
		// decodes as garbage. Fail at validation instead of mid-run.
		return c, fmt.Errorf("fl: codec %q cannot be combined with CompressTopK %v: integer quantization's per-chunk scale destroys top-k's surviving small entries; use codec f32 with top-k, or %s alone",
			c.Codec, c.CompressTopK, c.Codec)
	}
	if c.QuorumWait < 0 {
		return c, fmt.Errorf("fl: negative quorum wait %v", c.QuorumWait)
	}
	if c.QuorumWait == 0 {
		c.QuorumWait = 30 * time.Second
	}
	switch c.DType {
	case tensor.Float64, tensor.Float32:
	default:
		return c, fmt.Errorf("fl: unknown dtype %v", c.DType)
	}
	return c, nil
}

// NeedsWire reports whether the config asks for something only the simnet
// transports implement: buffered-async aggregation is a message protocol
// and a codec other than f64 encodes frames on a wire. Every entry point
// that picks a runner asks here; the in-process Simulation refuses such a
// config rather than silently running it as lockstep f64.
func (c Config) NeedsWire() bool {
	return c.AsyncBuffer > 0 || (c.Codec != "" && c.Codec != CodecF64)
}

// ResolveSpec applies the config's compute dtype to the model spec. Every
// entry point that pairs a Config with a ModelSpec — the in-process
// simulation and the simnet transports alike — must route the spec through
// here, so the one RunConfig knob switches the backend everywhere.
func (c Config) ResolveSpec(spec nn.ModelSpec) nn.ModelSpec {
	if c.DType != tensor.Float64 {
		spec.DType = c.DType
	}
	return spec
}
