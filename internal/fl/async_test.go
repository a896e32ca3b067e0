package fl

import (
	"fmt"
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func adultSpec() nn.ModelSpec {
	spec, err := data.Model("adult")
	if err != nil {
		panic(err)
	}
	return spec
}

func asyncFixture(t *testing.T) ([]*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test, err := data.Load("adult", data.Config{TrainN: 300, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	return locals, test
}

// lockstepAsync drives the coordinator like a synchronous federation:
// every generation, every client trains against the current global —
// copied into one pair of buffers it reuses — and folds immediately,
// in party order. With AsyncBuffer equal to the party
// count every fold lands with zero staleness and the flush closes exactly
// when the last client folds; with a smaller buffer the later clients of
// an outer pass fold against an already-advanced generation, exercising
// the staleness discount deterministically.
type lockstepAsync struct {
	sim *Simulation
}

func (l *lockstepAsync) PartyMeta(id int) UpdateMeta {
	n := l.sim.Clients[id].Data.Len()
	return UpdateMeta{N: n, Tau: PredictTau(l.sim.Cfg, n)}
}

func (l *lockstepAsync) RunAsync(c *AsyncCoordinator) error {
	var state, control []float64
	for {
		gen, st, ctl, done := c.CopyGlobal(state, control)
		if done {
			return nil
		}
		state, control = st, ctl
		for id, cl := range l.sim.Clients {
			p := cl.TrainStream(state, control, l.sim.Cfg)
			_, done, err := c.Fold(id, p.Update(), gen)
			p.Release()
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
	}
}

// TestAsyncLockstepMatchesSyncAllAlgorithms pins the buffered-async
// aggregation against the synchronous round bit for bit: when the async
// schedule degenerates to lockstep — buffer equal to the party count, so
// every generation folds exactly one zero-staleness update per party in
// party order — both schedulers run the Server's one rule on the same
// operands. The discount is exactly 1, so each fold adds the same base
// weight, and the flush divides by the same sum the round would. Every
// algorithm, both weightings and every server optimizer.
func TestAsyncLockstepMatchesSyncAllAlgorithms(t *testing.T) {
	locals, test := asyncFixture(t)
	for _, alg := range ExtendedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			for _, unweighted := range []bool{false, true} {
				for _, opt := range []ServerOpt{ServerSGD, ServerMomentum, ServerAdam} {
					t.Run(fmt.Sprintf("unweighted=%v/%s", unweighted, opt), func(t *testing.T) {
						cfg := Config{Algorithm: alg, Unweighted: unweighted, ServerOptimizer: opt,
							Rounds: 2, LocalEpochs: 1, BatchSize: 32, LR: 0.05, Mu: 0.01, Seed: 5}
						sync, err := NewSimulation(cfg, adultSpec(), locals, test)
						if err != nil {
							t.Fatal(err)
						}
						want, err := sync.Run()
						if err != nil {
							t.Fatal(err)
						}

						acfg := cfg
						acfg.AsyncBuffer = len(locals)
						asim, err := NewSimulation(acfg, adultSpec(), locals, test)
						if err != nil {
							t.Fatal(err)
						}
						got, err := asim.engine.RunAsync(&lockstepAsync{sim: asim})
						if err != nil {
							t.Fatal(err)
						}
						if got.Async == nil {
							t.Fatal("async run reported no AsyncStats")
						}
						if wantFolds := cfg.Rounds * len(locals); got.Async.Folds != wantFolds {
							t.Fatalf("folds %d, want %d", got.Async.Folds, wantFolds)
						}
						if got.Async.MaxStaleness != 0 || got.Async.MeanStaleness != 0 {
							t.Fatalf("lockstep schedule reported staleness (mean %v, max %d)",
								got.Async.MeanStaleness, got.Async.MaxStaleness)
						}
						requireSameBits(t, "async vs sync state", got.FinalState, want.FinalState)
					})
				}
			}
		})
	}
}

// TestZeroWeightFlushStepsServerOptimizer is the regression test for the
// zero-weight buffer. A round or generation whose every folded update came
// from an empty party (N = 0, tau = 0) has a zero weight sum under the
// weighted rule and a zero tau sum under FedNova, yet the server optimizer
// must still step, the same under both schedulers: momentum keeps moving
// the state by its velocity and Adam advances its step count. The async
// flush used to skip the apply there and freeze both.
func TestZeroWeightFlushStepsServerOptimizer(t *testing.T) {
	locals, test := asyncFixture(t)
	k := len(locals)
	// Unweighted FedAvg is absent: every party weighs 1 there, so the sum
	// is never zero.
	zeroSum := []Config{
		{Algorithm: FedAvg},
		{Algorithm: FedNova},
		{Algorithm: FedNova, Unweighted: true},
	}
	for _, cfg := range zeroSum {
		for _, opt := range []ServerOpt{ServerMomentum, ServerAdam} {
			cfg.ServerOptimizer = opt
			cfg.Rounds, cfg.LocalEpochs, cfg.BatchSize, cfg.LR, cfg.Seed, cfg.AsyncBuffer = 3, 1, 32, 0.05, 5, k
			t.Run(fmt.Sprintf("%s/unweighted=%v/%s", cfg.Algorithm, cfg.Unweighted, opt), func(t *testing.T) {
				sim, err := NewSimulation(cfg, adultSpec(), locals, test)
				if err != nil {
					t.Fatal(err)
				}
				async := sim.server
				c := newAsyncCoordinator(sim.engine, nil)
				sync := NewServer(async.cfg, async.State(), async.paramLen, async.numParties)

				stateLen := len(async.State())
				real := synthUpdates(rng.New(3), k, stateLen, async.paramLen, false)
				empty := make([]Update, k)
				for j := range empty {
					empty[j] = Update{Delta: make([]float64, stateLen)}
				}
				var afterReal []float64
				for gen, ups := range [][]Update{real, empty} {
					if err := aggregate(sync, ups); err != nil {
						t.Fatalf("sync round %d: %v", gen, err)
					}
					for id, u := range ups {
						if _, _, err := c.Fold(id, u, gen); err != nil {
							t.Fatalf("async generation %d fold %d: %v", gen, id, err)
						}
					}
					if gen == 0 {
						afterReal = append([]float64(nil), async.State()...)
					}
				}
				if g := c.Generation(); g != 2 {
					t.Fatalf("generation %d after two full buffers, want 2", g)
				}
				if n, _ := bitDiff(async.State(), afterReal); n == 0 {
					t.Fatal("the all-empty generation did not step the server optimizer")
				}
				requireSameBits(t, "state", async.State(), sync.State())
				requireSameBits(t, "velocity", async.velocity, sync.velocity)
				requireSameBits(t, "adam m", async.adamM, sync.adamM)
				requireSameBits(t, "adam v", async.adamV, sync.adamV)
				if async.adamT != sync.adamT {
					t.Fatalf("adamT: async %d vs sync %d", async.adamT, sync.adamT)
				}
			})
		}
	}
}

// TestAsyncBufferClampsToParties pins the flush threshold clamp: each
// party contributes at most one update per generation it receives, so a
// buffer above the population could never fill and the run would stall.
// The effective buffer must be the party count.
func TestAsyncBufferClampsToParties(t *testing.T) {
	locals, test := asyncFixture(t)
	cfg := Config{Algorithm: FedAvg, Rounds: 2, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, AsyncBuffer: 64}
	sim, err := NewSimulation(cfg, adultSpec(), locals, test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.engine.RunAsync(&lockstepAsync{sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if wantFolds := cfg.Rounds * len(locals); res.Async.Folds != wantFolds {
		t.Fatalf("folds %d, want %d (buffer not clamped to %d parties)",
			res.Async.Folds, wantFolds, len(locals))
	}
}

// TestAsyncStalenessAccounting runs the deterministic stale schedule:
// buffer 1 with 3 lockstep clients flushes after every fold, so each
// outer pass folds at staleness 0, 1, 2 — mean exactly 1, max exactly 2 —
// and the run completes in one pass per three generations.
func TestAsyncStalenessAccounting(t *testing.T) {
	locals, test := asyncFixture(t)
	cfg := Config{Algorithm: FedAvg, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, AsyncBuffer: 1}
	sim, err := NewSimulation(cfg, adultSpec(), locals, test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.engine.RunAsync(&lockstepAsync{sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if res.Async.Folds != 3 {
		t.Fatalf("folds %d, want 3", res.Async.Folds)
	}
	if res.Async.MeanStaleness != 1 || res.Async.MaxStaleness != 2 {
		t.Fatalf("staleness mean %v max %d, want mean 1 max 2",
			res.Async.MeanStaleness, res.Async.MaxStaleness)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v", i, v)
		}
	}
}

// TestAsyncFoldRejections pins the coordinator's validation contract: a
// malformed update (wrong length, future generation) is rejected with an
// error but does not poison the run, and folds after completion are
// ignored with done=true.
func TestAsyncFoldRejections(t *testing.T) {
	locals, test := asyncFixture(t)
	cfg := Config{Algorithm: FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, AsyncBuffer: 3}
	sim, err := NewSimulation(cfg, adultSpec(), locals, test)
	if err != nil {
		t.Fatal(err)
	}
	c := newAsyncCoordinator(sim.engine, nil)

	if d := c.staleness(0); d != 1 {
		t.Fatalf("staleness discount at tau 0: %v", d)
	}
	if d, want := c.staleness(1), 1/math.Sqrt(2); math.Abs(d-want) > 1e-15 {
		t.Fatalf("staleness discount at tau 1: %v, want %v (default exponent 0.5)", d, want)
	}

	stateLen := len(sim.server.State())
	good := func() Update {
		n := locals[0].Len()
		return Update{Delta: make([]float64, stateLen), N: n, Tau: PredictTau(sim.Cfg, n)}
	}

	if _, _, err := c.Fold(0, Update{Delta: make([]float64, 3), N: 10, Tau: 1}, 0); err == nil {
		t.Fatal("short delta accepted")
	}
	if _, _, err := c.Fold(0, good(), 5); err == nil {
		t.Fatal("future-generation update accepted")
	}
	u := good()
	u.Tau = 0
	if _, _, err := c.Fold(0, u, 0); err == nil {
		t.Fatal("non-positive tau accepted")
	}

	// Fill the only generation; the run completes on the third fold.
	for i := 0; i < 3; i++ {
		flushed, done, err := c.Fold(i, good(), 0)
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
		if (i == 2) != flushed || (i == 2) != done {
			t.Fatalf("fold %d: flushed=%v done=%v", i, flushed, done)
		}
	}
	if flushed, done, err := c.Fold(0, good(), 0); flushed || !done || err != nil {
		t.Fatalf("post-completion fold: flushed=%v done=%v err=%v", flushed, done, err)
	}
}

// TestAsyncFairnessCapDropsFastParty is the regression test for the
// fast-party buffer monopoly: with the default fair share of 1, a second
// update from the same party inside one buffer window is dropped silently
// (no error, no fold) and counted in FairnessDropped, so a 10x-faster
// party cannot turn a "buffer of M" into "M copies of itself". The quota
// resets at every flush.
func TestAsyncFairnessCapDropsFastParty(t *testing.T) {
	locals, test := asyncFixture(t)
	cfg := Config{Algorithm: FedAvg, Rounds: 2, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, AsyncBuffer: 3}
	sim, err := NewSimulation(cfg, adultSpec(), locals, test)
	if err != nil {
		t.Fatal(err)
	}
	c := newAsyncCoordinator(sim.engine, nil)
	stateLen := len(sim.server.State())
	good := func(i int) Update {
		n := locals[i].Len()
		return Update{Delta: make([]float64, stateLen), N: n, Tau: PredictTau(sim.Cfg, n)}
	}

	if flushed, done, err := c.Fold(0, good(0), 0); flushed || done || err != nil {
		t.Fatalf("first fold: flushed=%v done=%v err=%v", flushed, done, err)
	}
	// The fast party again, same window: dropped, not folded, not an error.
	if flushed, done, err := c.Fold(0, good(0), 0); flushed || done || err != nil {
		t.Fatalf("over-quota fold: flushed=%v done=%v err=%v", flushed, done, err)
	}
	if c.stats.FairnessDropped != 1 {
		t.Fatalf("FairnessDropped %d, want 1", c.stats.FairnessDropped)
	}
	if c.stats.Folds != 1 {
		t.Fatalf("folds %d after the drop, want 1", c.stats.Folds)
	}
	// The other parties fill the window; the third accepted fold flushes.
	if flushed, _, err := c.Fold(1, good(1), 0); flushed || err != nil {
		t.Fatalf("second party fold: flushed=%v err=%v", flushed, err)
	}
	flushed, done, err := c.Fold(2, good(2), 0)
	if err != nil || !flushed || done {
		t.Fatalf("window-filling fold: flushed=%v done=%v err=%v", flushed, done, err)
	}
	// New window, new quota: the fast party folds again.
	if flushed, done, err := c.Fold(0, good(0), 1); flushed || done || err != nil {
		t.Fatalf("post-flush fold: flushed=%v done=%v err=%v", flushed, done, err)
	}
	if c.stats.FairnessDropped != 1 {
		t.Fatalf("FairnessDropped %d after flush, want still 1", c.stats.FairnessDropped)
	}
}

// TestAsyncFairnessFloorDepletedFederation pins the liveness escape
// hatch: when deaths shrink the federation below buffer/fair-share
// feasibility, the effective cap rises to ceil(buffer/live) so the
// survivors can still flush a window — a sole survivor may legally
// contribute every fold of a 3-deep buffer.
func TestAsyncFairnessFloorDepletedFederation(t *testing.T) {
	locals, test := asyncFixture(t)
	cfg := Config{Algorithm: FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, AsyncBuffer: 3}
	sim, err := NewSimulation(cfg, adultSpec(), locals, test)
	if err != nil {
		t.Fatal(err)
	}
	c := newAsyncCoordinator(sim.engine, nil)
	c.SetLive(1)
	stateLen := len(sim.server.State())
	n := locals[0].Len()
	good := Update{Delta: make([]float64, stateLen), N: n, Tau: PredictTau(sim.Cfg, n)}
	for i := 0; i < 3; i++ {
		flushed, done, err := c.Fold(0, good, 0)
		if err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
		if (i == 2) != flushed || (i == 2) != done {
			t.Fatalf("fold %d: flushed=%v done=%v", i, flushed, done)
		}
	}
	if c.stats.FairnessDropped != 0 {
		t.Fatalf("FairnessDropped %d, want 0: the floor must admit a sole survivor", c.stats.FairnessDropped)
	}
	// SetLive ignores non-positive party counts rather than poisoning the
	// floor computation.
	c.SetLive(0)
	if c.live != 1 {
		t.Fatalf("SetLive(0) changed live to %d", c.live)
	}
}
