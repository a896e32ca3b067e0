package main

import (
	"strings"

	"github.com/niid-bench/niidbench/internal/tensor"
)

// workload is one frozen set of inputs. Work per pass is a fixed round
// count, never a time budget, so a parent commit and a change do the same
// work; --seconds only decides how many passes a run repeats.
type workload struct {
	Name string
	Why  string
	// Task selects the generator in gen.go.
	Task string
	// Flags are fedserver/fedparty flag strings; config.go parses them.
	Flags string
	// Rounds is one pass's round count (async: generations).
	Rounds int
	DType  tensor.DType
	// Target is the test accuracy the to-target metrics wait for; Floor is
	// the least acceptable best accuracy. Both were frozen from the curve
	// of the commit that added the benchmark.
	Target, Floor float64
	// GEMM is the model's largest matrix product as (m, k, n): batch rows
	// × fan-in × fan-out of the widest layer.
	GEMM [3]int
	// Conv is the first convolution's input (batch, channels, height,
	// width) and square kernel; nil when the model has none.
	Conv *convGeom
}

type convGeom struct{ B, C, H, W, K int }

const (
	cnnFlags  = "-parties 4 -epochs 2 -batch 32 -lr 0.0007 -partition label-dirichlet -beta 0.5 -chunk 65536 -codec f64"
	wideFlags = "-parties 8 -epochs 1 -batch 32 -lr 0.0003 -partition label-dirichlet -beta 0.5 -chunk 4096"
)

var (
	cnnGEMM  = [3]int{32 * 12 * 12, 3 * 5 * 5, 6}
	cnnConv  = &convGeom{B: 32, C: 3, H: 16, W: 16, K: 5}
	wideGEMM = [3]int{32, wideDim, 32}
)

var workloads = []*workload{
	{
		Name: "cnn-f64-sync",
		Why:  "the paper's canonical cell: party training (f64 GEMM/im2col, nn, optim) is most of a round and the wire is not, so kernel and train-step work shows here and wire work must not",
		Task: "cifar10", Flags: cnnFlags, Rounds: 44, DType: tensor.Float64,
		Target: 0.60, Floor: 0.75, GEMM: cnnGEMM, Conv: cnnConv,
	},
	{
		Name: "cnn-f32-sync",
		Why:  "same layers on the packed-panel f32 GEMM stack: a shared GEMM driver must speed f64 without costing this one",
		Task: "cifar10", Flags: cnnFlags, Rounds: 44, DType: tensor.Float32,
		Target: 0.60, Floor: 0.75, GEMM: cnnGEMM, Conv: cnnConv,
	},
	{
		Name: "wide-f64-sync",
		Why:  "2.1 MB state, cheap local step, K=8: broadcast encode, socket send/recv, uplink decode and the server fold are most of a round, so simnet and fl.Server work shows here and must not on cnn-*",
		Task: "wide", Flags: wideFlags + " -codec f64", Rounds: 200, DType: tensor.Float64,
		Target: 0.68, Floor: 0.70, GEMM: wideGEMM,
	},
	{
		Name: "wide-int8-sync",
		Why:  "same wire layer the other way: 8x fewer bytes but quantize/dequantize CPU both ways and the encode-once cache; a raw-frame win bought at the quantized path's cost shows as one row up, one row down",
		Task: "wide", Flags: wideFlags + " -codec int8", Rounds: 200, DType: tensor.Float64,
		Target: 0.68, Floor: 0.70, GEMM: wideGEMM,
	},
	{
		Name: "wide-f64-async",
		Why:  "same update-receive layer under the other scheduler (arrival-order fold, staleness discount, sender/receiver pairs): catches an async regression bought by a sync win",
		Task: "wide", Flags: wideFlags + " -codec f64 -async-buffer 2", Rounds: 220, DType: tensor.Float64,
		Target: 0.65, Floor: 0.70, GEMM: wideGEMM,
	},
}

// sync reports whether the workload runs lockstep rounds, whose results
// are bitwise reproducible.
func (w *workload) sync() bool { return !strings.Contains(w.Flags, "-async-buffer") }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// metric declares one reported number. Bound is the relative worsening
// that counts as a regression (end-to-end only); Moves says which
// end-to-end metric a per-layer metric is expected to move, and where.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_round", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "bytes_per_round", Unit: "B", Better: "lower", Bound: 0.08},
	{Name: "final_accuracy", Unit: "fraction", Better: "higher", Bound: 0.10},
	{Name: "rounds_to_target", Unit: "rounds", Better: "lower", Bound: 0.25},
	{Name: "time_to_target_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "bytes_to_target_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	onCNN  = "round_ms_p50, cpu_ms_per_round, time_to_target_s on cnn-*"
	onWide = "round_ms_p50, rounds_per_s, cpu_ms_per_round on wide-*"
)

var perLayer = []metric{
	{Name: "data.load_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all"},
	{Name: "partition.split_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all"},
	{Name: "data.batch_us", Unit: "us", Better: "lower", Moves: "round_ms_p50 on cnn-*"},
	{Name: "tensor.gemm_ms", Unit: "ms", Better: "lower", Moves: onCNN},
	{Name: "tensor.gemm_ta_ms", Unit: "ms", Better: "lower", Moves: onCNN},
	{Name: "tensor.gemm_tb_ms", Unit: "ms", Better: "lower", Moves: onCNN},
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: onCNN},
	{Name: "tensor.im2col_ms", Unit: "ms", Better: "lower", Moves: onCNN + " (0 on wide-*: no convolution)"},
	{Name: "tensor.col2im_ms", Unit: "ms", Better: "lower", Moves: onCNN + " (0 on wide-*: no convolution)"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p50 on cnn-*"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p50 on cnn-*"},
	{Name: "nn.fwdbwd_allocs", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "optim.step_us", Unit: "us", Better: "lower", Moves: "round_ms_p50 on cnn-*; second-order on wide-* (262k params)"},
	{Name: "fl.client.train_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p50, rounds_per_s; dominant on cnn-*, minor on wide-*"},
	{Name: "fl.client.train_allocs", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "fl.client.steps", Unit: "count", Better: "lower", Moves: "none: the work a train_ms covers"},
	{Name: "fl.client.chunks_us", Unit: "us", Better: "lower", Moves: "round_ms_p50 on wide-*"},
	{Name: "fl.server.begin_us", Unit: "us", Better: "lower", Moves: "round_ms_p50 on wide-*"},
	{Name: "fl.server.fold_ms", Unit: "ms", Better: "lower", Moves: "round_ms_p50 on wide-*"},
	{Name: "fl.server.fold_mb_s", Unit: "MB/s", Better: "higher", Moves: "round_ms_p50 on wide-*"},
	{Name: "fl.server.finish_us", Unit: "us", Better: "lower", Moves: "round_ms_p50 on wide-*"},
	{Name: "fl.eval.accuracy_ms", Unit: "ms", Better: "lower", Moves: "rounds_per_s, all (round_ms_p50 excludes evaluation on sync)"},
	{Name: "fl.checkpoint.encode_ms", Unit: "ms", Better: "lower", Moves: "none today: no workload checkpoints"},
	{Name: "fl.checkpoint.decode_ms", Unit: "ms", Better: "lower", Moves: "none today: no workload checkpoints"},
	{Name: "fl.checkpoint.write_ms", Unit: "ms", Better: "lower", Moves: "none today: no workload checkpoints"},
	{Name: "fl.checkpoint.bytes", Unit: "B", Better: "lower", Moves: "none today: no workload checkpoints"},
	{Name: "simnet.wire_round_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "simnet.wire_mb_s", Unit: "MB/s", Better: "higher", Moves: onWide},
	{Name: "simnet.pipe_round_ms", Unit: "ms", Better: "lower", Moves: "none: wire_round_ms minus this is the socket cost"},
	{Name: "simnet.bytes_per_round", Unit: "B", Better: "lower", Moves: "bytes_per_round, bytes_to_target_mb"},
	{Name: "simnet.dropped_updates", Unit: "count", Better: "lower", Moves: "failed share"},
	{Name: "fl.engine.round_ms_p90", Unit: "ms", Better: "lower", Moves: "none: diagnostic tail"},
	{Name: "fl.engine.round_ms_max", Unit: "ms", Better: "lower", Moves: "none: diagnostic tail"},
	{Name: "share.train", Unit: "fraction", Better: "higher", Moves: "none: verifies the workload design"},
	{Name: "share.wire", Unit: "fraction", Better: "lower", Moves: "none: verifies the workload design"},
	{Name: "share.eval", Unit: "fraction", Better: "lower", Moves: "none: verifies the workload design"},
	{Name: "trace.unaccounted", Unit: "fraction", Better: "lower", Moves: "none: share of accept-and-run that rounds and evaluation do not explain (admission, final copy)"},
	{Name: "trace_overhead", Unit: "ratio", Better: "higher", Moves: "none: traced rounds_per_s over untraced"},
}
