package fl

import (
	"math"
	"runtime"
	"testing"

	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// runWithDType runs the standard quick federation with the given compute
// dtype and returns the result.
func runWithDType(t *testing.T, alg Algorithm, dt tensor.DType) *Result {
	t.Helper()
	cfg := quickCfg(alg)
	cfg.DType = dt
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 4, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", alg, dt, err)
	}
	return res
}

// TestFloat32AccuracyParity is the tentpole acceptance check: on the
// quick-config federations the float32 backend's final accuracy must land
// within 1e-2 of the float64 run. Same seeds, same schedule — only the
// compute dtype differs, so any drift beyond rounding is a kernel bug.
func TestFloat32AccuracyParity(t *testing.T) {
	for _, alg := range []Algorithm{FedAvg, Scaffold} {
		res64 := runWithDType(t, alg, tensor.Float64)
		res32 := runWithDType(t, alg, tensor.Float32)
		diff := math.Abs(res64.FinalAccuracy - res32.FinalAccuracy)
		t.Logf("%s: f64=%.4f f32=%.4f diff=%.4f", alg, res64.FinalAccuracy, res32.FinalAccuracy, diff)
		if diff > 1e-2 {
			t.Fatalf("%s: float32 accuracy %v vs float64 %v (diff %v > 1e-2)",
				alg, res32.FinalAccuracy, res64.FinalAccuracy, diff)
		}
		// Label skew makes SCAFFOLD slow out of the gate (4 quick rounds);
		// only FedAvg gets a learning floor here.
		if alg == FedAvg && res32.FinalAccuracy < 0.55 {
			t.Fatalf("%s: float32 backend failed to learn: %v", alg, res32.FinalAccuracy)
		}
	}
}

// TestFloat32AllAlgorithmsRun exercises every algorithm (including the
// MOON/FedDyn extensions, DP sanitization and compression paths) on the
// float32 backend for a couple of rounds.
func TestFloat32AllAlgorithmsRun(t *testing.T) {
	for _, alg := range ExtendedAlgorithms() {
		cfg := quickCfg(alg)
		cfg.Rounds = 2
		cfg.DType = tensor.Float32
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 3, cfg)
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s (float32): %v", alg, err)
		}
	}
	cfg := quickCfg(FedAvg)
	cfg.Rounds = 2
	cfg.DType = tensor.Float32
	cfg.DPClip = 1
	cfg.DPNoise = 0.1
	cfg.CompressTopK = 0.5
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	if _, err := sim.Run(); err != nil {
		t.Fatalf("fedavg (float32, dp+compress): %v", err)
	}
}

// TestConfigDTypePlumbsToSpec checks that the RunConfig knob reaches the
// model spec (and therefore every layer).
func TestConfigDTypePlumbsToSpec(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.DType = tensor.Float32
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 2, cfg)
	if sim.Spec.DType != tensor.Float32 {
		t.Fatalf("spec dtype %v, want Float32", sim.Spec.DType)
	}
	for _, cl := range sim.Clients {
		for _, p := range cl.model.Params() {
			if p.Data.DType() != tensor.Float32 {
				t.Fatalf("param %s dtype %v, want Float32", p.Name, p.Data.DType())
			}
		}
	}
}

// TestEvaluatorParallelMatchesSerial pins the sharded evaluator to the
// single-shard result: accuracy is a count, so the fan-out must not change
// it at all.
func TestEvaluatorParallelMatchesSerial(t *testing.T) {
	cfg := quickCfg(FedAvg)
	sim, test := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	if _, err := sim.RunRound(0); err != nil {
		t.Fatal(err)
	}
	state := sim.GlobalState()
	spec := sim.Spec

	// Serial reference: one shard over the whole test set.
	ref := NewEvaluator(spec, test)
	want := float64(ref.shard(0).accuracyRange(spec, test, state, 0, test.Len())) / float64(test.Len())

	// Forced multi-shard: split with Accuracy's own shardRange and sum.
	e := NewEvaluator(spec, test)
	n := test.Len()
	shards := 3
	correct := 0
	for i := 0; i < shards; i++ {
		lo, hi := shardRange(n, shards, i)
		correct += e.shard(i).accuracyRange(spec, test, state, lo, hi)
	}
	got := float64(correct) / float64(n)
	if got != want {
		t.Fatalf("sharded accuracy %v != serial %v", got, want)
	}
	// And the public entry point agrees (GOMAXPROCS decides the fan-out).
	if acc := e.Accuracy(state); acc != want {
		t.Fatalf("Accuracy() %v != serial %v", acc, want)
	}
}

// TestShardRangeSplitsEvenly checks that evaluator shards tile the test
// rows contiguously with shares at most one row apart, bar the last: 600
// cifar10 rows on two shards split 300 / 300, not 512 / 88.
func TestShardRangeSplitsEvenly(t *testing.T) {
	if lo, hi := shardRange(600, 2, 1); lo != 300 || hi != 600 {
		t.Fatalf("600 rows, shard 1 of 2: [%d, %d), want [300, 600)", lo, hi)
	}
	for _, n := range []int{1, 255, 256, 257, 500, 600, 1000} {
		for shards := 1; shards <= (n+evalBatch-1)/evalBatch+1; shards++ {
			next, per := 0, (n+shards-1)/shards
			for i := 0; i < shards; i++ {
				lo, hi := shardRange(n, shards, i)
				if lo != min(next, n) || hi-lo > per {
					t.Fatalf("n=%d shards=%d: shard %d is [%d, %d), want it to start at %d and hold <= %d rows", n, shards, i, lo, hi, next, per)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: shards end at %d", n, shards, next)
			}
		}
	}
}

// TestOversubscriptionGuard checks that a parallel round hands every
// sampled client a per-model kernel budget of GOMAXPROCS/conc workers;
// budgets being per-model state is what makes concurrent Simulations in
// one process safe.
func TestOversubscriptionGuard(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.Rounds = 1
	cfg.Parallelism = 4
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, cfg)
	if _, err := sim.RunRound(0); err != nil {
		t.Fatal(err)
	}
	// With conc = min(Parallelism, sampled) = 4 concurrent clients on a
	// machine with G procs, each client's model must carry a budget of
	// max(1, G/4) workers.
	want := runtime.GOMAXPROCS(0) / 4
	if want < 1 {
		want = 1
	}
	for _, cl := range sim.Clients {
		if cl.cmp.Workers != want {
			t.Fatalf("client %d budget %d workers, want %d", cl.ID, cl.cmp.Workers, want)
		}
	}
}
