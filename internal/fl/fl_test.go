package fl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// testFederation builds a small adult-like federation for fast tests.
func testFederation(t *testing.T, strat partition.Strategy, parties int, cfg Config) (*Simulation, *data.Dataset) {
	t.Helper()
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := strat.Split(train, parties, rng.New(7))
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
	return sim, test
}

func quickCfg(alg Algorithm) Config {
	return Config{
		Algorithm:   alg,
		Rounds:      4,
		LocalEpochs: 2,
		BatchSize:   32,
		LR:          0.05,
		Momentum:    0.9,
		Mu:          0.01,
		Seed:        3,
	}
}

func TestAllAlgorithmsRunAndLearn(t *testing.T) {
	for _, alg := range Algorithms() {
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, quickCfg(alg))
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Curve) != 4 {
			t.Fatalf("%s: %d rounds recorded", alg, len(res.Curve))
		}
		// adult-like is ~76/24 imbalanced; learning should beat the
		// majority class by a reasonable margin under IID.
		if res.FinalAccuracy < 0.70 {
			t.Fatalf("%s: final accuracy %v too low", alg, res.FinalAccuracy)
		}
		if res.ParamCount <= 0 || res.StateCount < res.ParamCount {
			t.Fatalf("%s: bad counts %d/%d", alg, res.ParamCount, res.StateCount)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, quickCfg(FedAvg))
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("same seed, different accuracy: %v vs %v", a.FinalAccuracy, b.FinalAccuracy)
	}
	for i := range a.Curve {
		if a.Curve[i].TrainLoss != b.Curve[i].TrainLoss {
			t.Fatalf("round %d losses differ", i)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := quickCfg(FedAvg)
	sim1, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, cfg)
	cfg.Seed = 99
	sim2, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, cfg)
	r1, err := sim1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Curve[0].TrainLoss == r2.Curve[0].TrainLoss {
		t.Fatal("different seeds produced identical first-round losses")
	}
}

func TestScaffoldCommTwiceFedAvg(t *testing.T) {
	simA, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, quickCfg(FedAvg))
	simS, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, quickCfg(Scaffold))
	mA, err := simA.RunRound(0)
	if err != nil {
		t.Fatal(err)
	}
	mS, err := simS.RunRound(0)
	if err != nil {
		t.Fatal(err)
	}
	// SCAFFOLD moves the two control variates in addition to the model.
	if mS.CommBytes <= mA.CommBytes {
		t.Fatalf("scaffold comm %d should exceed fedavg %d", mS.CommBytes, mA.CommBytes)
	}
	ratio := float64(mS.CommBytes) / float64(mA.CommBytes)
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("scaffold/fedavg comm ratio %v, want ~2 (state has few buffers)", ratio)
	}
}

func TestPartySampling(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.SampleFraction = 0.5
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 8, cfg)
	m, err := sim.RunRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sampled) != 4 {
		t.Fatalf("sampled %d of 8 parties, want 4", len(m.Sampled))
	}
	seen := map[int]bool{}
	for _, id := range m.Sampled {
		if seen[id] {
			t.Fatal("party sampled twice in one round")
		}
		seen[id] = true
	}
}

func TestSamplingReducesComm(t *testing.T) {
	full := quickCfg(FedAvg)
	part := quickCfg(FedAvg)
	part.SampleFraction = 0.25
	simF, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 8, full)
	simP, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 8, part)
	mF, _ := simF.RunRound(0)
	mP, _ := simP.RunRound(0)
	if mP.CommBytes*4 != mF.CommBytes {
		t.Fatalf("comm should scale with sampled parties: %d vs %d", mP.CommBytes, mF.CommBytes)
	}
}

func TestFedProxStaysCloserToGlobal(t *testing.T) {
	// With a huge mu the local model barely moves, so the aggregated
	// delta's norm must be much smaller than FedAvg's.
	train, _, err := data.Load("adult", data.Config{TrainN: 400, TestN: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	deltaNorm := func(alg Algorithm, mu float64) float64 {
		_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg(alg)
		cfg.Mu = mu
		sim, err := NewSimulation(cfg, spec, locals, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := append([]float64{}, sim.GlobalState()...)
		if _, err := sim.RunRound(0); err != nil {
			t.Fatal(err)
		}
		after := sim.GlobalState()
		var norm float64
		for i := range before {
			d := after[i] - before[i]
			norm += d * d
		}
		return math.Sqrt(norm)
	}
	// mu must keep lr*mu well below the SGD stability limit; the paper
	// tunes mu in {0.001..1} for the same reason.
	avg := deltaNorm(FedAvg, 0)
	prox := deltaNorm(FedProx, 1)
	if prox >= avg*0.9 {
		t.Fatalf("fedprox(mu=1) delta %v should be below fedavg %v", prox, avg)
	}
}

func TestFedNovaNormalizesUnequalSteps(t *testing.T) {
	// Two parties with very different dataset sizes take different numbers
	// of local steps. FedNova's tau-normalized aggregate must differ from
	// FedAvg's plain weighted average on identical inputs.
	paramLen := 3
	mk := func(alg Algorithm) *Server {
		cfg, _ := Config{Algorithm: alg, ServerLR: 1}.Normalize()
		return NewServer(cfg, []float64{0, 0, 0}, paramLen, 2)
	}
	updates := []Update{
		{Delta: []float64{10, 10, 10}, Tau: 10, N: 100},
		{Delta: []float64{1, 1, 1}, Tau: 1, N: 100},
	}
	sAvg, sNova := mk(FedAvg), mk(FedNova)
	if err := aggregate(sAvg, updates); err != nil {
		t.Fatal(err)
	}
	if err := aggregate(sNova, updates); err != nil {
		t.Fatal(err)
	}
	// FedAvg: -(0.5*10 + 0.5*1) = -5.5.
	if math.Abs(sAvg.State()[0]+5.5) > 1e-9 {
		t.Fatalf("fedavg aggregate: %v", sAvg.State())
	}
	// FedNova: tau_eff = 5.5; normalized deltas both are 1 per step, so
	// -(5.5 * (0.5*10/10 + 0.5*1/1)) = -5.5 * 1 = -5.5 ... same here
	// because per-step updates are equal. Check a case where they differ:
	updates2 := []Update{
		{Delta: []float64{10, 10, 10}, Tau: 10, N: 100},
		{Delta: []float64{5, 5, 5}, Tau: 1, N: 100},
	}
	sAvg2, sNova2 := mk(FedAvg), mk(FedNova)
	if err := aggregate(sAvg2, updates2); err != nil {
		t.Fatal(err)
	}
	if err := aggregate(sNova2, updates2); err != nil {
		t.Fatal(err)
	}
	// FedAvg: -7.5. FedNova: tau_eff=5.5, sum w*delta/tau = 0.5*1+0.5*5=3
	// -> -16.5.
	if math.Abs(sAvg2.State()[0]+7.5) > 1e-9 {
		t.Fatalf("fedavg aggregate2: %v", sAvg2.State())
	}
	if math.Abs(sNova2.State()[0]+16.5) > 1e-9 {
		t.Fatalf("fednova aggregate2: %v", sNova2.State())
	}
}

func TestAggregateWeighting(t *testing.T) {
	cfg, _ := Config{Algorithm: FedAvg}.Normalize()
	s := NewServer(cfg, []float64{0}, 1, 2)
	updates := []Update{
		{Delta: []float64{1}, Tau: 1, N: 300},
		{Delta: []float64{-1}, Tau: 1, N: 100},
	}
	if err := aggregate(s, updates); err != nil {
		t.Fatal(err)
	}
	// -(0.75*1 + 0.25*(-1)) = -0.5.
	if math.Abs(s.State()[0]+0.5) > 1e-9 {
		t.Fatalf("weighted aggregate: %v", s.State()[0])
	}

	cfgU, _ := Config{Algorithm: FedAvg, Unweighted: true}.Normalize()
	su := NewServer(cfgU, []float64{0}, 1, 2)
	if err := aggregate(su, updates); err != nil {
		t.Fatal(err)
	}
	if math.Abs(su.State()[0]) > 1e-9 {
		t.Fatalf("unweighted aggregate should cancel: %v", su.State()[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	cfg, _ := Config{Algorithm: FedAvg}.Normalize()
	s := NewServer(cfg, []float64{0, 0}, 2, 2)
	if err := aggregate(s, nil); err == nil {
		t.Fatal("expected error for empty updates")
	}
	if err := aggregate(s, []Update{{Delta: []float64{1}, Tau: 1, N: 1}}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if err := aggregate(s, []Update{{Delta: []float64{1, 1}, Tau: 0, N: 1}}); err == nil {
		t.Fatal("expected error for tau=0")
	}
	cfgS, _ := Config{Algorithm: Scaffold}.Normalize()
	ss := NewServer(cfgS, []float64{0, 0}, 2, 2)
	if err := aggregate(ss, []Update{{Delta: []float64{1, 1}, Tau: 1, N: 1}}); err == nil {
		t.Fatal("expected error for missing DeltaC")
	}
}

func TestScaffoldControlVariateUpdates(t *testing.T) {
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 4, quickCfg(Scaffold))
	if _, err := sim.RunRound(0); err != nil {
		t.Fatal(err)
	}
	c := sim.server.Control()
	var norm float64
	for _, v := range c {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("server control variate never updated")
	}
	// Client control variates must persist too.
	nonzero := false
	for _, cl := range sim.Clients {
		for _, v := range cl.scaffoldC {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("client control variates never updated")
	}
}

func TestScaffoldVariants(t *testing.T) {
	for _, v := range []ScaffoldVariant{ScaffoldGradient, ScaffoldReuse} {
		cfg := quickCfg(Scaffold)
		cfg.Variant = v
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if res.FinalAccuracy < 0.6 {
			t.Fatalf("variant %d accuracy %v", v, res.FinalAccuracy)
		}
	}
}

func TestEvaluatorMajorityBaseline(t *testing.T) {
	// An untrained (random) model on a 2-class problem should land near
	// 50% or the majority rate; mainly this checks the evaluator plumbing.
	train, test, err := data.Load("adult", data.Config{TrainN: 100, TestN: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_ = train
	spec, _ := data.Model("adult")
	ev := NewEvaluator(spec, test)
	m := nn.Build(spec, rng.New(123))
	acc := ev.Accuracy(m.State())
	if acc < 0.05 || acc > 0.95 {
		t.Fatalf("suspicious untrained accuracy %v", acc)
	}
}

// TestDeltaIsGlobalMinusTrainedState pins what the in-place delta must
// equal for every algorithm and for the paths that read the trained state
// again: delta[i] is exactly global[i] - w_i[i] (the model the party ended
// the round with), the FedBN ablation zeroes the buffer tail and keeps the
// trained statistics, and MOON's history is the trained state.
func TestDeltaIsGlobalMinusTrainedState(t *testing.T) {
	cases := map[string]func(*Config){
		"scaffold-gradient": func(c *Config) { c.Algorithm, c.Variant = Scaffold, ScaffoldGradient },
		"keep-bn":           func(c *Config) { c.KeepBNStatsLocal = true },
		"moon+keep-bn":      func(c *Config) { c.Algorithm, c.KeepBNStatsLocal = Moon, true },
	}
	for _, alg := range ExtendedAlgorithms() {
		cases[string(alg)] = func(c *Config) { c.Algorithm = alg }
	}
	train, _, err := data.Load("mnist", data.Config{TrainN: 96, TestN: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	spec := nn.ModelSpec{Kind: nn.KindVGG, Channels: 1, Height: 16, Width: 16, Classes: 10}
	for name, mod := range cases {
		cfg := quickCfg(FedAvg)
		mod(&cfg)
		cfg, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(0, train, spec, rng.New(5))
		global := nn.Build(spec, rng.New(6)).State()
		paramLen := cl.ParamCount()
		var serverC []float64
		if cfg.Algorithm == Scaffold {
			serverC = make([]float64, paramLen)
		}
		for round := 0; round < 2; round++ { // round 1 exercises localBN / prevState / c_i carried over
			p := cl.TrainStream(global, serverC, cfg)
			trained := cl.model.State()
			delta := p.Update().Delta
			for i := range delta {
				want := global[i] - trained[i]
				if cfg.KeepBNStatsLocal && i >= paramLen {
					want = 0
				}
				if delta[i] != want {
					t.Fatalf("%s round %d: delta[%d] = %v, want %v", name, round, i, delta[i], want)
				}
			}
			if cfg.KeepBNStatsLocal && !slices.Equal(cl.localBN, trained[paramLen:]) {
				t.Fatalf("%s round %d: localBN is not the trained batch-norm statistics", name, round)
			}
			if cfg.Algorithm == Moon && !slices.Equal(cl.prevState, trained) {
				t.Fatalf("%s round %d: MOON's previous model is not the trained state", name, round)
			}
			p.Release()
		}
	}
}

// gatherAccuracy is evaluation the way the Evaluator did it before it
// scored test rows in place: a replica from nn.Build (random init,
// gradient tensors and all) and every batch gathered through BatchInto.
// It is the reference TestEvaluatorViewsMatchGather compares against.
func gatherAccuracy(spec nn.ModelSpec, test *data.Dataset, state []float64) float64 {
	m := nn.Build(spec, rng.New(0xe7a1))
	m.SetState(state)
	x := tensor.EnsureOf(spec.DType, nil, 1, test.FeatLen)
	var y, pred, idx []int
	correct := 0
	for start := 0; start < test.Len(); start += evalBatch {
		idx = idx[:0]
		for i := start; i < min(start+evalBatch, test.Len()); i++ {
			idx = append(idx, i)
		}
		x, y = test.BatchInto(x, y, idx)
		pred = nn.PredictInto(pred, m.Forward(spec.ShapeBatch(x), false))
		for i := range pred {
			if pred[i] == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Len())
}

// TestEvaluatorViewsMatchGather pins the zero-copy evaluation: on Float64
// the Evaluator scores views of test.X through gradient-free replicas and
// must agree with the gather path bit for bit — sharded or not, dense, conv
// and batch-norm models alike — without ever writing the dataset it
// borrows; Float32 still gathers (it has to narrow) and is unchanged.
func TestEvaluatorViewsMatchGather(t *testing.T) {
	hash := func(v []float64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, f := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	for _, tc := range []struct {
		dataset string
		kind    nn.ModelKind
	}{{"adult", nn.KindMLP}, {"mnist", nn.KindCNN}, {"mnist", nn.KindVGG}} {
		// 700 rows: two full batches and a ragged third, so two shards
		// split unevenly.
		_, test, err := data.Load(tc.dataset, data.Config{TrainN: 50, TestN: 700, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := data.Model(tc.dataset)
		if err != nil {
			t.Fatal(err)
		}
		spec.Kind = tc.kind
		for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
			spec.DType = dt
			state := nn.Build(spec, rng.New(123)).State()
			want := gatherAccuracy(spec, test, state)
			before := hash(test.X)
			for _, workers := range []int{1, 2} {
				ev := NewEvaluator(spec, test)
				ev.SetCompute(tensor.Compute{Workers: workers})
				for pass := 0; pass < 2; pass++ { // second pass reuses the shard scratch
					if got := ev.Accuracy(state); got != want {
						t.Fatalf("%s/%s/%v workers=%d pass %d: accuracy %v, gather path %v",
							tc.dataset, tc.kind, dt, workers, pass, got, want)
					}
				}
				for _, sh := range ev.shards {
					for _, p := range sh.model.Params() {
						if p.Grad != nil {
							t.Fatalf("%s/%s/%v: eval replica carries a gradient tensor for %s", tc.dataset, tc.kind, dt, p.Name)
						}
					}
					if dt == tensor.Float64 && (sh.yBuf != nil || sh.idx != nil) {
						t.Fatalf("%s/%s: the Float64 path gathered a batch", tc.dataset, tc.kind)
					}
				}
			}
			if hash(test.X) != before {
				t.Fatalf("%s/%s/%v: evaluation wrote to the test set", tc.dataset, tc.kind, dt)
			}
		}
	}
}

func TestKeepBNStatsLocal(t *testing.T) {
	// With the FedBN-style ablation the server's BN buffers must stay at
	// their initial values (no buffer deltas are sent).
	train, test, err := data.Load("mnist", data.Config{TrainN: 200, TestN: 100, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	spec := nn.ModelSpec{Kind: nn.KindVGG, Channels: 1, Height: 16, Width: 16, Classes: 10}
	cfg := quickCfg(FedAvg)
	cfg.Rounds = 1
	cfg.LocalEpochs = 1
	cfg.KeepBNStatsLocal = true
	sim, err := NewSimulation(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64{}, sim.GlobalState()[sim.server.paramLen:]...)
	if _, err := sim.RunRound(0); err != nil {
		t.Fatal(err)
	}
	after := sim.GlobalState()[sim.server.paramLen:]
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("KeepBNStatsLocal leaked buffer updates to the server")
		}
	}
	// And the opposite: plain averaging must move the buffers.
	cfg.KeepBNStatsLocal = false
	sim2, err := NewSimulation(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	before2 := append([]float64{}, sim2.GlobalState()[sim2.server.paramLen:]...)
	if _, err := sim2.RunRound(0); err != nil {
		t.Fatal(err)
	}
	after2 := sim2.GlobalState()[sim2.server.paramLen:]
	moved := false
	for i := range before2 {
		if before2[i] != after2[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("plain averaging should move BN buffers")
	}
}

func TestLabelSkewHurts(t *testing.T) {
	// The paper's core finding at miniature scale: #C=1 must be much worse
	// than IID for FedAvg on a multi-class problem.
	train, test, err := data.Load("mnist", data.Config{TrainN: 600, TestN: 300, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("mnist")
	run := func(strat partition.Strategy) float64 {
		_, locals, err := strat.Split(train, 10, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Algorithm: FedAvg, Rounds: 3, LocalEpochs: 2, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 3, EvalEvery: 3}
		sim, err := NewSimulation(cfg, spec, locals, test)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAccuracy
	}
	iid := run(partition.Strategy{Kind: partition.Homogeneous})
	skew := run(partition.Strategy{Kind: partition.LabelQuantity, K: 1})
	if iid <= skew {
		t.Fatalf("IID accuracy %v should beat #C=1 %v", iid, skew)
	}
}

func TestTrainLossDecreasesAcrossRounds(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.Rounds = 5
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 4, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := res.Curve[0].TrainLoss
	last := res.Curve[len(res.Curve)-1].TrainLoss
	if last >= first {
		t.Fatalf("train loss did not decrease: %v -> %v", first, last)
	}
	for _, m := range res.Curve {
		if m.Duration <= 0 {
			t.Fatal("round duration not recorded")
		}
	}
	if res.FinalState == nil || len(res.FinalState) != res.StateCount {
		t.Fatalf("final state missing or wrong length: %d", len(res.FinalState))
	}
}
