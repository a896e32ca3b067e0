package fl

import (
	"fmt"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// RoundMetrics records what happened in one communication round.
type RoundMetrics struct {
	Round        int
	TestAccuracy float64 // NaN-free: -1 when the round was not evaluated
	TrainLoss    float64 // mean of the surviving parties' final-epoch losses
	CommBytes    int64   // total bytes moved (server->parties + parties->server)
	Duration     time.Duration
	Sampled      []int // IDs of the sampled parties
	// Dropped lists sampled parties whose update was abandoned mid-round
	// (malformed chunk stream or transport failure); their weights were
	// never folded, so the round is the survivors' average. Nil on clean
	// rounds.
	Dropped []int
	// Quorum records the shortfall this round waited out before it ran:
	// its live party set had shrunk below Config.MinParties, or an earlier
	// attempt lost every update (see QuorumError). Nil when the round ran
	// at its first attempt, at quorum.
	Quorum *QuorumError
}

// Result summarizes a federated run.
type Result struct {
	Config        Config
	FinalAccuracy float64
	BestAccuracy  float64
	Curve         []RoundMetrics
	ParamCount    int
	StateCount    int
	// CommBytesPerRound is the average communication volume per round.
	CommBytesPerRound float64
	TotalCommBytes    int64
	// ComputeTime is the wall-clock time spent in local training and
	// aggregation (excludes evaluation).
	ComputeTime time.Duration
	// FinalState is the final global model state (parameters then
	// buffers); a FederationSnapshot carrying it as its State is a model
	// file.
	FinalState []float64
	// Async summarizes the buffered-async run (nil for synchronous
	// rounds): fold count and staleness distribution.
	Async *AsyncStats
}

// Simulation drives a full federated run over in-process parties. It is
// the function-call Transport over the shared round Engine; the simnet
// package provides the message-passing one.
//
// Multiple Simulations may run concurrently in one process: every client
// model carries its own kernel compute budget, so concurrent runs never
// interfere with each other's parallelism (or results — the budgets change
// scheduling only, never arithmetic).
type Simulation struct {
	Cfg     Config
	Spec    nn.ModelSpec
	Clients []*Client
	Test    *data.Dataset

	server *Server
	engine *Engine
	eval   *Evaluator
}

// NewSimulation wires up a federation: one client per local dataset, a
// server initialized from a fresh model, and an evaluator on the test set.
func NewSimulation(cfg Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) (*Simulation, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(locals) == 0 {
		return nil, fmt.Errorf("fl: no parties")
	}
	spec = cfg.ResolveSpec(spec)
	root := rng.New(cfg.Seed)
	clients := make([]*Client, len(locals))
	for i, ds := range locals {
		if ds.Len() == 0 {
			return nil, fmt.Errorf("fl: party %d has no data", i)
		}
		clients[i] = NewClient(i, ds, spec, root.Split())
	}
	initModel := nn.Build(spec, root.Split())
	sim := &Simulation{
		Cfg:     cfg,
		Spec:    spec,
		Clients: clients,
		Test:    test,
		eval:    NewEvaluator(spec, test),
	}
	sim.server = NewServer(cfg, initModel.State(), initModel.ParamCount(), len(clients))
	var dists [][]float64
	if cfg.Sampling == SampleStratified && cfg.SampleFraction < 1 {
		dists = make([][]float64, len(clients))
		for i, cl := range clients {
			dists[i] = cl.Data.LabelDistribution()
		}
	}
	sim.engine, err = NewEngine(cfg, sim.server, sim.eval, len(clients), root.Split(), dists)
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// PartyMeta implements Transport.
func (s *Simulation) PartyMeta(id int) UpdateMeta {
	n := s.Clients[id].Data.Len()
	return UpdateMeta{N: n, Tau: PredictTau(s.Cfg, n)}
}

// TrainRound implements Transport: it fans the sampled parties out across
// up to Cfg.Parallelism goroutines and folds their updates in sampled
// order, each as soon as its slot is the next in line. The sink folds
// each update straight from the party's pooled workspace, which is
// released right after, so no per-update delta allocation escapes the
// round.
//
// Each sampled client's kernels run under a budget of Parallelism/conc
// workers, so clients x kernel goroutines never exceeds this run's core
// share. The budgets are per-model — no process-global state — which is
// what lets two Simulations share a process safely.
func (s *Simulation) TrainRound(round int, sampled []int, global, control []float64, sink *RoundSink) error {
	conc := s.Cfg.Parallelism
	if conc > len(sampled) {
		conc = len(sampled)
	}
	// Split this run's own core share (Cfg.Parallelism, GOMAXPROCS by
	// default) across the concurrent clients — not the whole machine, so
	// several runs in one process (experiment grid cells) stay within
	// their slices.
	budget := tensor.Compute{Workers: s.Cfg.Parallelism}.Split(conc)
	slots := make([]chan *PendingUpdate, len(sampled))
	for j := range slots {
		slots[j] = make(chan *PendingUpdate, 1)
	}
	sem := make(chan struct{}, s.Cfg.Parallelism)
	for j, id := range sampled {
		go func(j, id int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			cl := s.Clients[id]
			cl.SetComputeBudget(budget)
			slots[j] <- cl.TrainStream(global, control, s.Cfg)
		}(j, id)
	}
	for j := range slots {
		p := <-slots[j]
		err := sink.Fold(j, p.Update())
		p.Release()
		if err != nil {
			// Release stragglers so their pooled deltas are not stranded;
			// the buffered slots mean the training goroutines never block.
			for k := j + 1; k < len(slots); k++ {
				go func(k int) { (<-slots[k]).Release() }(k)
			}
			return err
		}
	}
	return nil
}

// RunRound executes one communication round and returns its metrics.
func (s *Simulation) RunRound(round int) (RoundMetrics, error) {
	return s.engine.RunRound(s, round)
}

// Run executes the configured number of rounds and returns the result. A
// config that needs a wire is refused: lockstep function calls would run
// it as synchronous f64 and report numbers for a job nobody asked for.
func (s *Simulation) Run() (*Result, error) {
	if s.Cfg.NeedsWire() {
		return nil, fmt.Errorf("fl: async buffer %d / codec %q need a simnet transport; the in-process simulation runs lockstep f64 only", s.Cfg.AsyncBuffer, s.Cfg.Codec)
	}
	return s.engine.Run(s)
}

// GlobalState exposes the current global model state (for tests and for
// transports).
func (s *Simulation) GlobalState() []float64 { return s.server.State() }

// evalBatch is the evaluation mini-batch size.
const evalBatch = 256

// evalShard is one evaluation worker: layers cache per-call state inside
// Forward, so concurrent evaluation needs a model replica per goroutine —
// that replica is what makes eval-mode Forward reentrant across shards. A
// Float64 model scores the test rows in place (x is a view of the
// dataset, re-pointed per batch; eval-mode Forward never writes its
// input); a Float32 model needs them narrowed, so x is batch scratch it
// gathers into, with yBuf and idx beside it. All of it is reused across
// rounds.
type evalShard struct {
	model *nn.Sequential
	x     *tensor.Tensor
	pred  []int
	yBuf  []int // Float32 only
	idx   []int // Float32 only
}

// accuracyRange counts correct predictions on test samples [lo, hi).
func (s *evalShard) accuracyRange(spec nn.ModelSpec, test *data.Dataset, state []float64, lo, hi int) int {
	s.model.SetState(state)
	correct := 0
	for start := lo; start < hi; start += evalBatch {
		end := min(start+evalBatch, hi)
		x, y := s.batch(spec.DType, test, start, end)
		s.pred = nn.PredictInto(s.pred, s.model.Forward(spec.ShapeBatch(x), false))
		for i := range s.pred {
			if s.pred[i] == y[i] {
				correct++
			}
		}
	}
	return correct
}

// batch returns test rows [start, end) as a model input plus their labels.
// The rows are contiguous, so Float64 gets zero-copy views of the dataset
// (one view tensor, re-pointed per batch, because ShapeBatch reshapes it
// in place); Float32 keeps BatchInto's narrowing copy.
func (s *evalShard) batch(dt tensor.DType, test *data.Dataset, start, end int) (*tensor.Tensor, []int) {
	if dt == tensor.Float64 {
		s.x = tensor.ViewInto(s.x, test.X[start*test.FeatLen:end*test.FeatLen], end-start, test.FeatLen)
		return s.x, test.Y[start:end]
	}
	if s.x == nil {
		// Sized to the model's dtype so BatchInto narrows into it.
		s.x = tensor.EnsureOf(dt, nil, end-start, test.FeatLen)
	}
	s.idx = s.idx[:0]
	for i := start; i < end; i++ {
		s.idx = append(s.idx, i)
	}
	s.x, s.yBuf = test.BatchInto(s.x, s.yBuf, s.idx)
	return s.x, s.yBuf
}

// Evaluator measures test accuracy of a model state. The test set is
// sharded across the evaluator's compute budget (all cores by default)
// between rounds, each shard owning an inference-only model replica (one
// state vector: no gradients, see nn.BuildInference), so evaluation uses
// its core share while staying essentially allocation-free.
type Evaluator struct {
	spec   nn.ModelSpec
	test   *data.Dataset
	shards []*evalShard
	cmp    tensor.Compute
}

// NewEvaluator builds an evaluator; shard replicas are created on first
// use (one on single-core machines).
func NewEvaluator(spec nn.ModelSpec, test *data.Dataset) *Evaluator {
	return &Evaluator{spec: spec, test: test}
}

// SetCompute bounds the evaluator's total fan-out (shards x per-shard
// kernel workers). The round engine sets it to the run's Parallelism so
// concurrent runs in one process evaluate within their core shares.
func (e *Evaluator) SetCompute(c tensor.Compute) { e.cmp = c }

// shard returns the i-th worker, growing the replica list on demand.
func (e *Evaluator) shard(i int) *evalShard {
	for len(e.shards) <= i {
		e.shards = append(e.shards, &evalShard{model: nn.BuildInference(e.spec)})
	}
	return e.shards[i]
}

// shardRange is shard i's contiguous share of n test rows split over
// shards as evenly as whole rows allow: ⌈n/shards⌉ each, the last shard
// short. (Rounding shares up to whole mini-batches instead split 600 rows
// 512 / 88, and one core idled through most of every evaluation.)
func shardRange(n, shards, i int) (lo, hi int) {
	per := (n + shards - 1) / shards
	return min(i*per, n), min((i+1)*per, n)
}

// Accuracy computes top-1 accuracy of the given state on the test set.
func (e *Evaluator) Accuracy(state []float64) float64 {
	if e.test == nil || e.test.Len() == 0 {
		return 0
	}
	n := e.test.Len()
	shards := e.cmp.Resolve()
	if maxShards := (n + evalBatch - 1) / evalBatch; shards > maxShards {
		shards = maxShards
	}
	if shards <= 1 {
		return float64(e.shard(0).accuracyRange(e.spec, e.test, state, 0, n)) / float64(n)
	}
	// The same oversubscription guard as TrainRound: each shard's model
	// gets its own kernel budget so shards x kernel goroutines stays
	// within the evaluator's budget.
	budget := e.cmp.Split(shards)
	counts := make([]int, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo, hi := shardRange(n, shards, i)
		if lo >= hi {
			break
		}
		sh := e.shard(i)
		sh.model.SetCompute(budget)
		wg.Add(1)
		go func(i int, sh *evalShard, lo, hi int) {
			defer wg.Done()
			counts[i] = sh.accuracyRange(e.spec, e.test, state, lo, hi)
		}(i, sh, lo, hi)
	}
	wg.Wait()
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n)
}
