package fl

import (
	"errors"
	"fmt"
	"time"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Membership is optionally implemented by transports whose party set
// changes while the federation runs (the simnet federation, where parties
// drop, flap and rejoin). SyncMembership is called at the top of every
// round attempt, from the round loop goroutine: the transport applies any
// pending departures and rejoins there — never mid-round — and returns
// the live mask, one entry per party, once at least Config.MinParties
// parties are live, waiting for departed parties to rejoin if need be.
// Parties whose entry is false are excluded from sampling, so dead parties
// stop consuming round capacity. short, when non-nil, records the round's
// shortfall so far: the round had to wait for quorum, or an earlier
// attempt of it lost every update (the engine then calls again for the
// same round). The wait is the transport's: once the round has been short
// for Config.QuorumWait, SyncMembership returns the *QuorumError as err
// and the run ends. A transport that does not implement Membership has
// every party live, always.
type Membership interface {
	SyncMembership(round int) (live []bool, short *QuorumError, err error)
}

// QuorumError reports a round that could not run because the live party
// set had shrunk below Config.MinParties, or because every attempt at it
// lost every update. Returned — errors.As-able — it ends the run: the
// transport waited Config.QuorumWait for parties to rejoin and none
// brought the round to quorum. Recorded in RoundMetrics.Quorum, it is the
// shortfall a completed round waited out.
type QuorumError struct {
	// Round is the round that could not start.
	Round int
	// Live and Min are the live party count at the last short attempt (0
	// for an attempt that lost every update) and the configured quorum.
	Live, Min int
	// Attempts counts how often the round fell short: once for each
	// attempt that had to wait for quorum, and once for each that lost
	// every update.
	Attempts int
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("fl: round %d below quorum: %d live parties, need %d (attempt %d)",
		e.Round, e.Live, e.Min, e.Attempts)
}

// Transport produces a round's worth of local training for the Engine.
// Two implementations exist: the in-process simulation (function calls,
// goroutine-per-client) and the simnet federation (serialized messages
// over pipes or TCP). The Engine owns everything transport-independent —
// party sampling, streaming aggregation, metrics, evaluation cadence and
// Result assembly — so the round machinery exists exactly once.
type Transport interface {
	// PartyMeta returns the aggregation metadata of party id (its local
	// dataset size and per-round step count).
	PartyMeta(id int) UpdateMeta
	// TrainRound trains the sampled parties from the given global state
	// (and SCAFFOLD control variate; nil otherwise) and delivers each
	// update whole through the sink in sampled order — Fold, or Drop for a
	// party whose update went bad. Parties may train — and their updates
	// may arrive — in any order; the transport reorders so the fold is
	// deterministic for a given sample. The sink does not retain any
	// delivered slices, and the transport must not retain global or
	// control past its return: the engine reuses both next round.
	TrainRound(round int, sampled []int, global, control []float64, sink *RoundSink) error
}

// RoundSink is the engine's receiving end of one synchronous round, a
// generation whose buffer is the sample: the transport hands it each
// update in sampled order and the sink folds it through the server's one
// ingest (the same fold the async coordinator uses), keeping the round's
// loss/byte accounting. Where the round stands — which update is next —
// is the server's cursor.
// It is not safe for concurrent use — the transport must serialize calls,
// because the delivery order defines the aggregation's floating-point
// fold order.
type RoundSink struct {
	e       *Engine
	sampled []int
	loss    float64
	bytes   int64
	dropped []int // party IDs dropped from the round
}

// Fold folds update idx, which must be the next in sampled order, whole:
// its vectors must have the state's (and SCAFFOLD's control's) length and
// its N/Tau must match the sampled party's PartyMeta. A refused update
// leaves the round untouched; the transport then drops it. The sink reads
// u's vectors only during the call, so they may be views of a buffer the
// transport recycles as soon as Fold returns.
func (k *RoundSink) Fold(idx int, u Update) error {
	if err := k.e.server.foldNext(idx, u); err != nil {
		return err
	}
	k.loss += u.TrainLoss
	k.bytes += k.e.commBytesForUpdate(u)
	return nil
}

// Drop removes update idx — and its party — from the round; its weight is
// never folded, so FinishRound averages over the survivors. cause is the
// transport's reason: only the party ID reaches RoundMetrics.Dropped, so
// transports that care about the why (operator logs) must surface cause
// themselves.
func (k *RoundSink) Drop(idx int, cause error) error {
	if err := k.e.server.next(idx); err != nil {
		return err
	}
	if err := k.e.server.DropUpdate(); err != nil {
		return err
	}
	k.dropped = append(k.dropped, k.sampled[idx])
	return nil
}

// byteMeter is implemented by transports that measure real communication
// bytes (simnet's counting conns); the engine then reports measured rather
// than analytic volumes.
type byteMeter interface {
	RoundBytes() int64
}

// Engine drives federated rounds over a Transport: sampling, dispatch,
// streaming aggregation, metrics, evaluation cadence and Result assembly.
type Engine struct {
	cfg        Config
	server     *Server
	eval       *Evaluator
	r          *rng.RNG
	strat      *stratifier // non-nil under stratified partial participation
	numParties int

	// Checkpoint, when set, is called at round boundaries with a complete
	// snapshot of the run (every CheckpointEvery rounds and after the last
	// round; CheckpointEvery <= 0 means every round). The snapshot is
	// borrowed (see Snapshot): valid only until the hook returns. A
	// returned error aborts the run: a federation asked to be durable
	// must not silently continue undurable. Transports that track
	// per-party resync state fill FederationSnapshot.PartyControl inside
	// the hook before persisting.
	Checkpoint      func(*FederationSnapshot) error
	CheckpointEvery int

	// global and serverC are the round-start snapshot RunRound hands the
	// transport, reused across rounds: a transport reads them only until
	// its TrainRound returns.
	global, serverC []float64

	// startRound/restored carry a Restore across into Run.
	startRound int
	restored   *FederationSnapshot
}

// NewEngine wires the transport-independent round machinery. sampler
// drives party selection; labelDists (one distribution per party) is
// consulted only under stratified sampling and may be nil otherwise. The
// config must be normalized.
func NewEngine(cfg Config, server *Server, eval *Evaluator, numParties int, sampler *rng.RNG, labelDists [][]float64) (*Engine, error) {
	e := &Engine{cfg: cfg, server: server, eval: eval, r: sampler, numParties: numParties}
	if eval != nil {
		// Evaluation shares the run's core budget, so concurrent runs in
		// one process (experiment grid cells) also evaluate within their
		// shares.
		eval.SetCompute(tensor.Compute{Workers: cfg.Parallelism})
	}
	if cfg.Sampling == SampleStratified && cfg.SampleFraction < 1 {
		if len(labelDists) != numParties {
			return nil, fmt.Errorf("fl: stratified sampling needs %d label distributions, have %d", numParties, len(labelDists))
		}
		k := int(cfg.SampleFraction*float64(numParties) + 0.5)
		e.strat = newStratifier(labelDists, k, sampler.Split())
	}
	return e, nil
}

// sampleParties selects the round's participants (Algorithm 1 line 4)
// from the live party set. live is the transport's liveness mask (nil
// means every party is live); dead parties are excluded before the draw,
// so they stop consuming round capacity, and the sample fraction applies
// to the live population. With every party live the RNG consumption is
// identical to the fixed-membership sampler, so fault-free runs stay
// bitwise reproducible.
func (e *Engine) sampleParties(live []bool) []int {
	ids := make([]int, 0, e.numParties)
	for i := 0; i < e.numParties; i++ {
		if live == nil || live[i] {
			ids = append(ids, i)
		}
	}
	n := len(ids)
	k := int(e.cfg.SampleFraction*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k >= n {
		return ids
	}
	if e.strat != nil {
		return e.strat.sample(e.r, live)
	}
	picks := e.r.SampleWithoutReplacement(n, k)
	for j, p := range picks {
		picks[j] = ids[p]
	}
	return picks
}

// commBytesForUpdate computes one party's round communication volume
// analytically from the exchanged vector lengths (8 bytes per float64):
// the global state down, the state delta up (sparse-encoded under top-k
// compression), plus the two control variates for SCAFFOLD — which is why
// SCAFFOLD costs exactly twice FedAvg.
func (e *Engine) commBytesForUpdate(u Update) int64 {
	stateBytes := int64(len(e.server.State())) * 8
	ctrlBytes := int64(e.server.paramLen) * 8
	down, up := stateBytes, stateBytes
	if e.cfg.CompressTopK > 0 {
		up = sparseCommBytes(u.Kept, e.server.paramLen, len(e.server.State()))
	}
	if e.cfg.Algorithm == Scaffold {
		down += ctrlBytes
		up += ctrlBytes
	}
	return down + up
}

// RunRound executes one communication round over the transport and returns
// its metrics (TestAccuracy is -1; the Run loop fills it on evaluation
// rounds). Updates are folded into the global state as they are delivered
// — the server never holds more than the streaming accumulator.
func (e *Engine) RunRound(tr Transport, round int) (RoundMetrics, error) {
	start := time.Now()
	var live []bool
	var short *QuorumError
	if mb, ok := tr.(Membership); ok {
		var err error
		if live, short, err = mb.SyncMembership(round); err != nil {
			return RoundMetrics{Round: round}, err
		}
	}
	sampled := e.sampleParties(live)
	// Snapshot what the parties train against: the streaming fold mutates
	// SCAFFOLD's control variate while later parties are still training,
	// so they must read the round-start copy, exactly as the batched
	// aggregation semantics had it.
	e.global = append(e.global[:0], e.server.State()...)
	global := e.global
	var serverC []float64
	if c := e.server.Control(); c != nil {
		e.serverC = append(e.serverC[:0], c...)
		serverC = e.serverC
	}

	metas := make([]UpdateMeta, len(sampled))
	for j, id := range sampled {
		metas[j] = tr.PartyMeta(id)
	}
	if err := e.server.BeginRound(metas); err != nil {
		return RoundMetrics{}, err
	}
	sink := &RoundSink{e: e, sampled: sampled}
	if err := tr.TrainRound(round, sampled, global, serverC, sink); err != nil {
		e.server.AbortRound()
		return RoundMetrics{}, err
	}
	if err := e.server.FinishRound(); err != nil {
		e.server.AbortRound()
		return RoundMetrics{}, err
	}
	bytes := sink.bytes
	if bm, ok := tr.(byteMeter); ok {
		bytes = bm.RoundBytes()
	}
	return RoundMetrics{
		Round:        round,
		TestAccuracy: -1,
		TrainLoss:    sink.loss / float64(e.server.added),
		CommBytes:    bytes,
		Duration:     time.Since(start),
		Sampled:      sampled,
		Dropped:      sink.dropped,
		Quorum:       short,
	}, nil
}

// SetInitialState overrides the server's global state before training
// starts (seeding a run from a bare state-vector checkpoint). The length
// must match. Available on every transport — in-process simulation and
// TCP federation alike — via the shared engine.
func (e *Engine) SetInitialState(state []float64) error {
	if len(state) != len(e.server.state) {
		return fmt.Errorf("fl: checkpoint has %d values, model needs %d", len(state), len(e.server.state))
	}
	copy(e.server.state, state)
	return nil
}

// Snapshot captures the engine's complete resumable state after `round`
// completed rounds: server model + algorithm + optimizer state, sampler
// RNG position, and the run-level accumulators. The snapshot borrows the
// server's vectors and curve rather than copying them, so it is valid
// only until the next round starts: encode it (WriteSnapshotFile,
// EncodeSnapshot) or Restore from it before then. A checkpoint therefore
// allocates no state-length vector.
func (e *Engine) Snapshot(round int, curve []RoundMetrics, bestAcc float64, commBytes int64, compute time.Duration) *FederationSnapshot {
	snap := &FederationSnapshot{
		ConfigFingerprint: ConfigFingerprint(e.cfg),
		Round:             round,
		Sampler:           e.r.State(),
		Curve:             curve,
		BestAccuracy:      bestAcc,
		TotalCommBytes:    commBytes,
		ComputeTime:       compute,
	}
	e.server.snapshotInto(snap)
	return snap
}

// Restore rewinds the engine to a previously captured snapshot: the next
// Run resumes at snapshot.Round with the server state, sampler position
// and metrics history of the original run, so the completed run is
// bitwise identical to one that never stopped. A snapshot whose config
// fingerprint differs from this engine's config is refused with a typed
// *SnapshotMismatchError; shape mismatches (different model, federation
// size, or algorithm state) are refused too.
func (e *Engine) Restore(snap *FederationSnapshot) error {
	if want := ConfigFingerprint(e.cfg); snap.ConfigFingerprint != want {
		return &SnapshotMismatchError{Want: want, Got: snap.ConfigFingerprint}
	}
	if snap.Round < 0 || snap.Round > e.cfg.Rounds {
		return fmt.Errorf("fl: snapshot at round %d outside this run's %d rounds", snap.Round, e.cfg.Rounds)
	}
	if err := e.server.restoreSnapshot(snap); err != nil {
		return err
	}
	e.r.SetState(snap.Sampler)
	e.startRound = snap.Round
	e.restored = snap
	return nil
}

// ledger is the run's one set of books, under both schedulers: seeded from
// a Restore, it closes each synchronous round or async generation —
// evaluation cadence, best accuracy, curve, byte and compute totals,
// checkpoint cadence — and assembles the Result.
type ledger struct {
	e   *Engine
	res *Result
}

func (e *Engine) newLedger() *ledger {
	res := &Result{
		Config:     e.cfg,
		ParamCount: e.server.paramLen,
		StateCount: len(e.server.State()),
	}
	if r := e.restored; r != nil {
		res.Curve = append(res.Curve, r.Curve...)
		res.BestAccuracy = r.BestAccuracy
		res.TotalCommBytes = r.TotalCommBytes
		res.ComputeTime = r.ComputeTime
	}
	return &ledger{e: e, res: res}
}

// close books round (or generation) t from its metrics. A run without an
// evaluator leaves every TestAccuracy at -1.
func (l *ledger) close(t int, m RoundMetrics) error {
	e, res := l.e, l.res
	last := t == e.cfg.Rounds-1
	res.ComputeTime += m.Duration
	if e.eval != nil && ((t+1)%e.cfg.EvalEvery == 0 || last) {
		m.TestAccuracy = e.eval.Accuracy(e.server.State())
		if m.TestAccuracy > res.BestAccuracy {
			res.BestAccuracy = m.TestAccuracy
		}
	}
	res.Curve = append(res.Curve, m)
	res.TotalCommBytes += m.CommBytes
	if e.Checkpoint == nil || ((t+1)%max(e.CheckpointEvery, 1) != 0 && !last) {
		return nil
	}
	snap := e.Snapshot(t+1, res.Curve, res.BestAccuracy, res.TotalCommBytes, res.ComputeTime)
	if err := e.Checkpoint(snap); err != nil {
		return fmt.Errorf("fl: round %d checkpoint: %w", t, err)
	}
	return nil
}

// result completes the Result from the server's final state.
func (l *ledger) result() *Result {
	res := l.res
	res.FinalState = append([]float64{}, l.e.server.State()...)
	if len(res.Curve) > 0 {
		res.CommBytesPerRound = float64(res.TotalCommBytes) / float64(len(res.Curve))
		res.FinalAccuracy = res.Curve[len(res.Curve)-1].TestAccuracy
	}
	return res
}

// Run executes the configured number of rounds over the transport and
// assembles the Result: per-round curve, evaluation cadence, communication
// accounting and the final global state. After Restore, Run picks up at
// the snapshot's round with the snapshot's accumulated history.
func (e *Engine) Run(tr Transport) (*Result, error) {
	led := e.newLedger()
	_, elastic := tr.(Membership)
	for t := e.startRound; t < e.cfg.Rounds; {
		m, err := e.RunRound(tr, t)
		if elastic && errors.Is(err, ErrAllDropped) {
			// Every update was lost, and left no residue in the server (see
			// ErrAllDropped): attempt the round again, since its parties may
			// be mid-rejoin. The transport's quorum wait bounds how long.
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := led.close(t, m); err != nil {
			return nil, err
		}
		t++
	}
	return led.result(), nil
}
