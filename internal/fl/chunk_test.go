package fl

import (
	"fmt"
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
)

// TestChunkStateMachine exercises the chunked accumulator's misuse
// errors: wrong update index, out-of-order/overlapping/oversized offsets,
// finishing an incomplete stream and trailer mismatches.
func TestChunkStateMachine(t *testing.T) {
	cfg, _ := Config{}.Normalize()
	s := NewServer(cfg, []float64{0, 0, 0, 0}, 4, 2)
	if err := s.AddUpdateChunk(0, 0, []float64{1}); err == nil {
		t.Fatal("AddUpdateChunk outside a round should fail")
	}
	metas := []UpdateMeta{{N: 10, Tau: 2}, {N: 20, Tau: 2}}
	if err := s.BeginRound(metas); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUpdateChunk(1, 0, []float64{1}); err == nil {
		t.Fatal("chunk for the wrong update index should fail")
	}
	if err := s.AddUpdateChunk(0, 1, []float64{1}); err == nil {
		t.Fatal("chunk with a leading gap should fail")
	}
	if err := s.AddUpdateChunk(0, 0, nil); err == nil {
		t.Fatal("empty chunk should fail")
	}
	if err := s.AddUpdateChunk(0, 0, []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("chunk beyond the stream length should fail")
	}
	if err := s.AddUpdateChunk(0, 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUpdateChunk(0, 1, []float64{3}); err == nil {
		t.Fatal("overlapping offset should fail")
	}
	if err := s.AddUpdateChunk(0, 3, []float64{4}); err == nil {
		t.Fatal("gapped offset should fail")
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 2}); err == nil {
		t.Fatal("FinishUpdate with an incomplete stream should fail")
	}
	if err := s.AddUpdateChunk(0, 2, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 2, Delta: []float64{1}}); err == nil {
		t.Fatal("trailer carrying a delta vector should fail")
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 3}); err == nil {
		t.Fatal("trailer mismatching the meta should fail")
	}
	if err := s.FinishUpdate(Update{N: 10, Tau: 2}); err != nil {
		t.Fatal(err)
	}
	if err := feedChunked(s, 1, Update{Delta: []float64{1, 1, 1, 1}, N: 20, Tau: 2}, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishRound(); err != nil {
		t.Fatal(err)
	}
}

// TestDropReweightsSurvivors drops one mid-round update (after part of
// its chunk stream was staged) and checks the finished state against a
// fresh batched aggregation over the survivors only, bit for bit, for
// every algorithm, both weighting modes and every server optimizer. A
// dropped party's weight is never folded, so the round divides by the
// survivors' weight sum and performs exactly the survivors-only
// arithmetic.
func TestDropReweightsSurvivors(t *testing.T) {
	const paramLen, stateLen, parties = 11, 14, 4
	initial := make([]float64, stateLen)
	ir := rng.New(5)
	for i := range initial {
		initial[i] = 2*ir.Float64() - 1
	}
	for _, alg := range ExtendedAlgorithms() {
		for _, unweighted := range []bool{false, true} {
			for _, opt := range []ServerOpt{ServerSGD, ServerMomentum, ServerAdam} {
				cfg, err := Config{Algorithm: alg, Unweighted: unweighted, ServerOptimizer: opt}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s unweighted=%v %s", alg, unweighted, opt)
				dropping := NewServer(cfg, initial, paramLen, parties)
				reference := NewServer(cfg, initial, paramLen, parties)
				r := rng.New(23)
				ups := synthUpdates(r, parties, stateLen, paramLen, alg == Scaffold)

				metas := make([]UpdateMeta, len(ups))
				for j, u := range ups {
					metas[j] = UpdateMeta{N: u.N, Tau: u.Tau}
				}
				if err := dropping.BeginRound(metas); err != nil {
					t.Fatal(err)
				}
				const victim = 1
				for j, u := range ups {
					if j == victim {
						// Stage part of the stream, then abandon it — nothing
						// of it may reach the accumulator.
						if err := dropping.AddUpdateChunk(j, 0, u.Delta[:5]); err != nil {
							t.Fatal(err)
						}
						if err := dropping.DropUpdate(); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if err := feedChunked(dropping, j, u, dropping.StreamLen()); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if err := dropping.FinishRound(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				survivors := append(append([]Update{}, ups[:victim]...), ups[victim+1:]...)
				if err := reference.aggregateBatched(survivors); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requireSameBits(t, name+": dropped-round vs survivors-only state", dropping.State(), reference.State())
				requireSameBits(t, name+": control", dropping.Control(), reference.Control())
			}
		}
	}
}

// TestAllUpdatesDroppedFailsRound pins the degenerate case: a round where
// every party was dropped cannot finish.
func TestAllUpdatesDroppedFailsRound(t *testing.T) {
	cfg, _ := Config{}.Normalize()
	s := NewServer(cfg, []float64{0, 0}, 2, 2)
	if err := s.BeginRound([]UpdateMeta{{N: 5, Tau: 1}, {N: 5, Tau: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DropUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropUpdate(); err == nil {
		t.Fatal("dropping beyond the sampled parties should fail")
	}
	if err := s.FinishRound(); err == nil {
		t.Fatal("a round with zero surviving updates should fail to finish")
	}
}

// TestEmptyPartyWeightingNoNaN is the regression test for the empty-party
// weighting bug: metas with N=0 (zero local samples, zero steps) must not
// produce NaN weights — FedNova's tau division and the weighted rule's
// 0/0 were both capable of poisoning the accumulator.
func TestEmptyPartyWeightingNoNaN(t *testing.T) {
	const paramLen, stateLen = 3, 4
	initial := []float64{1, -1, 0.5, 2}
	zero := make([]float64, stateLen)
	zeroC := make([]float64, paramLen)
	for _, alg := range ExtendedAlgorithms() {
		for _, unweighted := range []bool{false, true} {
			cfg, err := Config{Algorithm: alg, Unweighted: unweighted}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			emptyUpdate := Update{Delta: zero}
			if alg == Scaffold {
				emptyUpdate.DeltaC = zeroC
			}
			live := Update{Delta: []float64{1, 2, 3, 4}, N: 10, Tau: 2}
			if alg == Scaffold {
				live.DeltaC = []float64{0.1, 0.2, 0.3}
			}

			// Mixed round: one live and one empty party.
			s := NewServer(cfg, initial, paramLen, 2)
			if err := aggregate(s, []Update{live, emptyUpdate}); err != nil {
				t.Fatalf("%s mixed: %v", alg, err)
			}
			for i, v := range s.State() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s unweighted=%v mixed round: state[%d] = %v", alg, unweighted, i, v)
				}
			}

			// All-empty round: totalN == 0 used to divide 0/0.
			s = NewServer(cfg, initial, paramLen, 2)
			e2 := emptyUpdate
			e2.Delta = append([]float64{}, zero...)
			if err := aggregate(s, []Update{emptyUpdate, e2}); err != nil {
				t.Fatalf("%s all-empty: %v", alg, err)
			}
			for i, v := range s.State() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s unweighted=%v all-empty round: state[%d] = %v", alg, unweighted, i, v)
				}
				if v != initial[i] && alg != FedDyn {
					// Zero deltas must leave the state untouched (FedDyn's
					// h-correction also stays zero but check only NaN there).
					t.Fatalf("%s: all-zero round moved state[%d] from %v to %v", alg, i, initial[i], v)
				}
			}
		}
	}
}

// TestSimulationChunkedBitIdentical runs the same federation with
// whole-update and chunked in-process delivery and demands bitwise equal
// results: chunking must change memory behaviour only, never arithmetic.
func TestSimulationChunkedBitIdentical(t *testing.T) {
	for _, alg := range []Algorithm{FedAvg, FedNova, Scaffold} {
		cfg := quickCfg(alg)
		cfg.Rounds = 2
		whole, err := buildSim(t, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		cfgChunked := cfg
		cfgChunked.ChunkSize = 97 // deliberately misaligned with the state length
		chunked, err := buildSim(t, cfgChunked).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(whole.FinalState) != len(chunked.FinalState) {
			t.Fatalf("%s: state length %d vs %d", alg, len(whole.FinalState), len(chunked.FinalState))
		}
		for i := range whole.FinalState {
			if whole.FinalState[i] != chunked.FinalState[i] {
				t.Fatalf("%s: state[%d] whole %v vs chunked %v", alg, i, whole.FinalState[i], chunked.FinalState[i])
			}
		}
		for r := range whole.Curve {
			if whole.Curve[r].TrainLoss != chunked.Curve[r].TrainLoss ||
				whole.Curve[r].TestAccuracy != chunked.Curve[r].TestAccuracy {
				t.Fatalf("%s round %d: metrics diverged", alg, r)
			}
		}
	}
}
