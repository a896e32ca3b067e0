package fl

import (
	"sync"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// synthUpdates builds a deterministic round of synthetic updates for the
// given state/param geometry. Deltas are dense pseudo-random values; Tau
// and N vary per party so weighted and FedNova paths exercise non-trivial
// coefficients.
func synthUpdates(r *rng.RNG, k, stateLen, paramLen int, scaffold bool) []Update {
	ups := make([]Update, k)
	for j := range ups {
		u := Update{
			Delta:     make([]float64, stateLen),
			N:         50 + r.Intn(200),
			Tau:       1 + r.Intn(17),
			TrainLoss: r.Float64(),
			Kept:      paramLen,
		}
		for i := range u.Delta {
			u.Delta[i] = 2*r.Float64() - 1
		}
		if scaffold {
			u.DeltaC = make([]float64, paramLen)
			for i := range u.DeltaC {
				u.DeltaC[i] = 2*r.Float64() - 1
			}
		}
		ups[j] = u
	}
	return ups
}

// TestStreamingMatchesBatchedAggregation drives many rounds of synthetic
// updates through two servers built from the same initial state — one
// folding chunk-at-a-time through the stager (AddUpdateChunk/FinishUpdate)
// with frame sizes from one element to the whole stream, and one using the
// batched oracle — and demands bit-identical state trajectories ("curves")
// for every algorithm, both weighting modes and every server optimizer.
// Any drift here would make streamed and batched runs scientifically
// incomparable.
func TestStreamingMatchesBatchedAggregation(t *testing.T) {
	const (
		paramLen = 37
		stateLen = 45 // params + 8 buffer slots
		rounds   = 6
		parties  = 5
	)
	chunkSizes := []int{1, 7, 16, stateLen, stateLen + paramLen, 1 << 20}
	initial := make([]float64, stateLen)
	ir := rng.New(99)
	for i := range initial {
		initial[i] = 2*ir.Float64() - 1
	}
	for _, alg := range ExtendedAlgorithms() {
		for _, unweighted := range []bool{false, true} {
			for _, opt := range []ServerOpt{ServerSGD, ServerMomentum, ServerAdam} {
				cfg, err := Config{
					Algorithm:       alg,
					Unweighted:      unweighted,
					ServerOptimizer: opt,
				}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				chunked := NewServer(cfg, initial, paramLen, parties)
				batched := NewServer(cfg, initial, paramLen, parties)
				r := rng.New(7)
				for round := 0; round < rounds; round++ {
					ups := synthUpdates(r, 3, stateLen, paramLen, alg == Scaffold)
					metas := make([]UpdateMeta, len(ups))
					for j, u := range ups {
						metas[j] = UpdateMeta{N: u.N, Tau: u.Tau}
					}
					if err := chunked.BeginRound(metas); err != nil {
						t.Fatalf("%s/%v/%s round %d: %v", alg, unweighted, opt, round, err)
					}
					for j, u := range ups {
						size := chunkSizes[(round+j)%len(chunkSizes)]
						if err := feedChunked(chunked, j, u, size); err != nil {
							t.Fatalf("%s/%v/%s round %d chunk %d: %v", alg, unweighted, opt, round, size, err)
						}
					}
					if err := chunked.FinishRound(); err != nil {
						t.Fatalf("%s/%v/%s round %d: %v", alg, unweighted, opt, round, err)
					}
					if err := batched.aggregateBatched(ups); err != nil {
						t.Fatalf("%s/%v/%s round %d (batched): %v", alg, unweighted, opt, round, err)
					}
					for i := range chunked.State() {
						if chunked.State()[i] != batched.State()[i] {
							t.Fatalf("%s unweighted=%v opt=%s round %d: state[%d] chunked %v vs batched %v",
								alg, unweighted, opt, round, i, chunked.State()[i], batched.State()[i])
						}
					}
					if alg == Scaffold {
						for i := range chunked.Control() {
							if chunked.Control()[i] != batched.Control()[i] {
								t.Fatalf("%s round %d: control[%d] chunked %v vs batched %v",
									alg, round, i, chunked.Control()[i], batched.Control()[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestStreamingRoundStateMachine exercises the accumulator's misuse
// errors: folds outside rounds, meta mismatches, incomplete rounds.
func TestStreamingRoundStateMachine(t *testing.T) {
	cfg, _ := Config{}.Normalize()
	s := NewServer(cfg, []float64{0, 0}, 2, 2)
	u := Update{Delta: []float64{1, 1}, Tau: 2, N: 10}
	if err := feedChunked(s, 0, u, 2); err == nil {
		t.Fatal("an update outside a round should fail")
	}
	if err := s.FinishUpdate(Update{Tau: 2, N: 10}); err == nil {
		t.Fatal("FinishUpdate outside a round should fail")
	}
	if err := s.FinishRound(); err == nil {
		t.Fatal("FinishRound outside a round should fail")
	}
	if err := s.BeginRound(nil); err == nil {
		t.Fatal("BeginRound with no metas should fail")
	}
	if err := s.BeginRound([]UpdateMeta{{N: 10, Tau: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginRound([]UpdateMeta{{N: 10, Tau: 2}}); err == nil {
		t.Fatal("nested BeginRound should fail")
	}
	if err := s.FinishRound(); err == nil {
		t.Fatal("FinishRound before all updates arrived should fail")
	}
	// A refused trailer leaves the staged stream in place, so the right
	// trailer can still finish it.
	if err := feedChunked(s, 0, Update{Delta: []float64{1, 1}, Tau: 3, N: 10}, 2); err == nil {
		t.Fatal("tau mismatch against meta should fail")
	}
	if err := s.FinishUpdate(Update{Tau: 2, N: 10}); err != nil {
		t.Fatal(err)
	}
	if err := feedChunked(s, 1, u, 2); err == nil {
		t.Fatal("more updates than metas should fail")
	}
	if err := s.FinishRound(); err != nil {
		t.Fatal(err)
	}
}

// buildSim constructs a small federation over the adult dataset with the
// given seed offset, for the concurrency tests.
func buildSim(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 150, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := data.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestConcurrentSimulationsDeterministic runs the same configuration
// alone and then again while a second, different simulation trains in the
// same process, and demands bitwise-identical results. Under the old
// process-global kernel-parallelism knob the two runs could clobber each
// other's caps; with per-model compute budgets they are fully isolated.
// Run under -race this is also the shared-state regression test for the
// whole round path.
func TestConcurrentSimulationsDeterministic(t *testing.T) {
	cfgA := quickCfg(FedAvg)
	cfgA.Rounds = 2
	cfgB := quickCfg(Scaffold)
	cfgB.Rounds = 2
	cfgB.Seed = 11

	alone, err := buildSim(t, cfgA).Run()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var resA, resB *Result
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, errA = buildSim(t, cfgA).Run()
	}()
	go func() {
		defer wg.Done()
		resB, errB = buildSim(t, cfgB).Run()
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent runs failed: %v / %v", errA, errB)
	}
	if resB.FinalAccuracy <= 0 {
		t.Fatalf("concurrent scaffold run produced accuracy %v", resB.FinalAccuracy)
	}
	if len(alone.FinalState) != len(resA.FinalState) {
		t.Fatalf("state length changed: %d vs %d", len(alone.FinalState), len(resA.FinalState))
	}
	for i := range alone.FinalState {
		if alone.FinalState[i] != resA.FinalState[i] {
			t.Fatalf("final state diverged at %d: alone %v vs concurrent %v",
				i, alone.FinalState[i], resA.FinalState[i])
		}
	}
	for r := range alone.Curve {
		if alone.Curve[r].TestAccuracy != resA.Curve[r].TestAccuracy ||
			alone.Curve[r].TrainLoss != resA.Curve[r].TrainLoss {
			t.Fatalf("round %d metrics diverged: alone (%v, %v) vs concurrent (%v, %v)",
				r, alone.Curve[r].TestAccuracy, alone.Curve[r].TrainLoss,
				resA.Curve[r].TestAccuracy, resA.Curve[r].TrainLoss)
		}
	}
}

// TestSimulationStreamingCurveStable pins the refactor end to end: a full
// multi-algorithm run must produce identical curves when executed twice,
// proving the streaming fold order (sampled order, not completion order)
// is deterministic even with concurrent party training.
func TestSimulationStreamingCurveStable(t *testing.T) {
	for _, alg := range []Algorithm{FedAvg, FedNova, Scaffold} {
		cfg := quickCfg(alg)
		cfg.Rounds = 2
		cfg.Parallelism = 3
		r1, err := buildSim(t, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := buildSim(t, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1.FinalState {
			if r1.FinalState[i] != r2.FinalState[i] {
				t.Fatalf("%s: state[%d] differs across identical runs: %v vs %v",
					alg, i, r1.FinalState[i], r2.FinalState[i])
			}
		}
	}
}
