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

// sinkFor opens a synchronous round over s for the given updates and
// returns the round's sink, the one a transport folds whole updates into.
func sinkFor(t *testing.T, s *Server, ups []Update) *RoundSink {
	t.Helper()
	e, err := NewEngine(s.cfg, s, nil, s.numParties, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]UpdateMeta, len(ups))
	sampled := make([]int, len(ups))
	for j, u := range ups {
		metas[j], sampled[j] = UpdateMeta{N: u.N, Tau: u.Tau}, j
	}
	if err := s.BeginRound(metas); err != nil {
		t.Fatal(err)
	}
	return &RoundSink{e: e, sampled: sampled}
}

// TestDropReweightsSurvivors drops one update mid-round and checks the
// finished state against a fresh batched aggregation over the survivors
// only, bit for bit, for every algorithm, both weighting modes and every
// server optimizer. Two kinds of victim: a chunk stream abandoned part-way
// through the stager, and a whole update RoundSink.Fold refuses (a short
// Delta, then an N and a Tau that disagree with its meta) before the
// transport drops it. A dropped party's weight is never folded, so the
// round divides by the survivors' weight sum and performs exactly the
// survivors-only arithmetic.
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
				for _, refused := range []bool{false, true} {
					cfg, err := Config{Algorithm: alg, Unweighted: unweighted, ServerOptimizer: opt}.Normalize()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s unweighted=%v %s refused=%v", alg, unweighted, opt, refused)
					dropping := NewServer(cfg, initial, paramLen, parties)
					reference := NewServer(cfg, initial, paramLen, parties)
					r := rng.New(23)
					ups := synthUpdates(r, parties, stateLen, paramLen, alg == Scaffold)
					sink := sinkFor(t, dropping, ups)
					const victim = 1
					for j, u := range ups {
						switch {
						case j == victim && refused:
							// Nothing of a refused update may reach the accumulator.
							bad := []Update{u, u, u}
							bad[0].Delta = u.Delta[:stateLen-1]
							bad[1].N++
							bad[2].Tau++
							for _, b := range bad {
								if err := sink.Fold(j, b); err == nil {
									t.Fatalf("%s: Fold accepted n=%d tau=%d with a %d-element delta",
										name, b.N, b.Tau, len(b.Delta))
								}
							}
							if err := sink.Drop(j, nil); err != nil {
								t.Fatal(err)
							}
						case j == victim:
							// Stage part of the stream, then abandon it.
							if err := dropping.AddUpdateChunk(j, 0, u.Delta[:5]); err != nil {
								t.Fatal(err)
							}
							if err := sink.Drop(j, nil); err != nil {
								t.Fatal(err)
							}
						case refused:
							if err := sink.Fold(j, u); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
						default:
							if err := feedChunked(dropping, j, u, dropping.streamLen()); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
						}
					}
					if err := dropping.FinishRound(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(sink.dropped) != 1 || sink.dropped[0] != victim {
						t.Fatalf("%s: dropped %v, want [%d]", name, sink.dropped, victim)
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
}

// TestFoldRetainsNoUpdate pins that both schedulers' fold reads an
// update's vectors during the call only: the transports hand in views of
// pooled buffers they recycle the moment Fold returns. Every update is
// NaN-filled right after its Fold, and the finished round — or flushed
// generation — must equal the unscribbled run bit for bit.
func TestFoldRetainsNoUpdate(t *testing.T) {
	const paramLen, stateLen, parties = 11, 14, 3
	initial := make([]float64, stateLen)
	ir := rng.New(8)
	for i := range initial {
		initial[i] = 2*ir.Float64() - 1
	}
	clone := func(ups []Update) []Update {
		out := make([]Update, len(ups))
		for j, u := range ups {
			out[j] = u
			out[j].Delta = append([]float64(nil), u.Delta...)
			if u.DeltaC != nil {
				out[j].DeltaC = append([]float64(nil), u.DeltaC...)
			}
		}
		return out
	}
	scribble := func(u Update) {
		for _, v := range [][]float64{u.Delta, u.DeltaC} {
			for i := range v {
				v[i] = math.NaN()
			}
		}
	}
	for _, alg := range ExtendedAlgorithms() {
		for _, async := range []bool{false, true} {
			name := fmt.Sprintf("%s async=%v", alg, async)
			cfg, err := Config{Algorithm: alg, ServerOptimizer: ServerMomentum, Rounds: 2}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			ups := synthUpdates(rng.New(29), parties, stateLen, paramLen, alg == Scaffold)
			var states, controls [2][]float64
			for run, scribbled := range []bool{false, true} {
				s := NewServer(cfg, initial, paramLen, parties)
				round := clone(ups)
				if async {
					acfg := cfg
					acfg.AsyncBuffer = parties
					e, err := NewEngine(acfg, s, nil, parties, rng.New(1), nil)
					if err != nil {
						t.Fatal(err)
					}
					c := newAsyncCoordinator(e, nil)
					for j, u := range round {
						if _, _, err := c.Fold(j, u, 0); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if scribbled {
							scribble(u)
						}
					}
					if c.Generation() != 1 {
						t.Fatalf("%s: %d generations after a full buffer, want 1", name, c.Generation())
					}
				} else {
					sink := sinkFor(t, s, round)
					for j, u := range round {
						if err := sink.Fold(j, u); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if scribbled {
							scribble(u)
						}
					}
					if err := s.FinishRound(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				states[run], controls[run] = s.State(), s.Control()
			}
			requireSameBits(t, name+": scribbled vs untouched state", states[1], states[0])
			requireSameBits(t, name+": control", controls[1], controls[0])
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
