package fl

import (
	"errors"
	"fmt"
	"math"
)

// ErrAllDropped reports a round in which every sampled update was dropped
// mid-stream. Nothing was folded — the drops happened before any
// FinishUpdate — so the global state, SCAFFOLD control and FedDyn h are
// exactly as they were at BeginRound and the round is safely retryable;
// the engine treats it like a below-quorum attempt instead of aborting.
var ErrAllDropped = errors.New("fl: every update in the round was dropped")

// UpdateMeta is what the server knows about an expected update before it
// arrives: the party's local dataset size (the aggregation weight) and its
// deterministic local step count. Both are fixed by the party's data and
// the run config, so the server can finalize the round's weighting — and
// FedNova's effective step count — at BeginRound and fold each update the
// moment it lands, holding O(state) memory instead of O(sampled x state).
type UpdateMeta struct {
	// N is the party's local dataset size.
	N int
	// Tau is the party's local SGD step count for the round.
	Tau int
}

// validTau reports whether a (dataset size, step count) pair is an
// acceptable update meta: positive steps, or the empty-party case of zero
// samples and zero steps (which aggregates with weight zero). The one
// predicate is shared by the synchronous and async validation paths so
// they can never diverge.
func validTau(n, tau int) bool {
	return tau > 0 || (tau == 0 && n == 0)
}

// PredictTau returns the number of local SGD steps a party with n samples
// performs under cfg: LocalEpochs passes of ceil(n/BatchSize) mini-batches.
// It mirrors the batching loop in Client.TrainStream exactly; the streaming
// aggregator validates arriving updates against it.
func PredictTau(cfg Config, n int) int {
	return cfg.LocalEpochs * ((n + cfg.BatchSize - 1) / cfg.BatchSize)
}

// Server holds the global model state and implements the aggregation rules
// of the four algorithms (Algorithm 1 lines 9-10, Algorithm 2 lines 9-10)
// plus the FedDyn/MOON extensions, as a streaming accumulator: the round
// opens with BeginRound, each update arrives chunk-at-a-time through
// AddUpdateChunk and folds in at FinishUpdate — DropUpdate removing a
// party whose stream went bad — and FinishRound applies the accumulated
// pseudo-gradient. The buffered-async coordinator folds through the same
// accumulate/apply pair, so the rule is written once for both schedulers.
// With n the round's total sample count and N the federation size:
//
//	FedAvg/FedProx/SCAFFOLD: w <- w - serverLR * sum_i (n_i/n) Delta_i
//	FedNova:                 w <- w - serverLR * tau_eff * sum_i (n_i/n) Delta_i / tau_i
//	                          with tau_eff = sum_i (n_i/n) tau_i
//	SCAFFOLD additionally:   c <- c + (1/N) sum_i DeltaC_i
type Server struct {
	cfg      Config
	state    []float64 // global model state (params then buffers)
	paramLen int
	// control is SCAFFOLD's server control variate c (parameter-length).
	control []float64
	// numParties is the total federation size N (not just sampled), used
	// in SCAFFOLD's c update.
	numParties int
	// dynH is FedDyn's server state (parameter-length).
	dynH []float64
	// Server-optimizer state (FedAvgM / FedAdam).
	velocity     []float64
	adamM, adamV []float64
	adamT        int

	// Streaming-round state. agg is the round's pseudo-gradient
	// accumulator, reused across rounds so steady state allocates nothing
	// per round beyond the metas slice.
	agg     []float64
	metas   []UpdateMeta
	norm    float64 // sum of the metas' base weights, fixed at BeginRound
	tauEff  float64 // FedNova's effective step count, fixed at BeginRound
	added   int
	inRound bool

	// Chunked-delivery state. cur stages the in-progress update's chunk
	// stream (the state-length delta followed, for SCAFFOLD, by the
	// parameter-length control delta); curOff is the next expected stream
	// offset. Staging exactly one update keeps peak memory at
	// O(state) regardless of how many clients are in flight, and lets a
	// malformed stream be abandoned with DropUpdate before anything
	// touches the accumulator. dropMask marks metas dropped mid-round so
	// FinishRound can renormalize the surviving weights.
	cur      []float64
	curOff   int
	dropMask []bool
	dropped  int
}

// NewServer creates a server with the given initial global state.
func NewServer(cfg Config, initial []float64, paramLen, numParties int) *Server {
	s := &Server{
		cfg:        cfg,
		state:      append([]float64{}, initial...),
		paramLen:   paramLen,
		numParties: numParties,
	}
	if cfg.Algorithm == Scaffold {
		s.control = make([]float64, paramLen)
	}
	if cfg.Algorithm == FedDyn {
		s.dynH = make([]float64, paramLen)
	}
	return s
}

// State returns the current global state (not a copy; callers must not
// mutate it).
func (s *Server) State() []float64 { return s.state }

// Control returns SCAFFOLD's server control variate (nil otherwise).
func (s *Server) Control() []float64 { return s.control }

// StreamLen returns the element count of one update's chunk stream: the
// full state-length delta plus, for SCAFFOLD, the parameter-length control
// delta. Chunk offsets passed to AddUpdateChunk index into this stream.
func (s *Server) StreamLen() int {
	n := len(s.state)
	if s.cfg.Algorithm == Scaffold {
		n += s.paramLen
	}
	return n
}

// cursor returns the index of the in-progress meta: every earlier meta was
// either folded or dropped.
func (s *Server) cursor() int { return s.added + s.dropped }

// baseWeight is an update's un-normalized aggregation weight: the party's
// sample count under the paper's weighted rule (n_i/n), 1 under the
// unweighted ablation and under FedDyn, which averages participating
// models unweighted (Acar et al.). Both schedulers weight by it — the
// synchronous round divides by the sample's sum up front (weightFor), the
// async buffer by its discounted sum at the flush.
func (s *Server) baseWeight(n int) float64 {
	if s.cfg.Unweighted || s.cfg.Algorithm == FedDyn {
		return 1
	}
	return float64(n)
}

// weightFor returns the round-normalized weight of an update with local
// size n, with the exact arithmetic of the batched reference, so streaming
// and batched aggregation are bit-identical. A round whose every sampled
// party reported an empty dataset falls back to the unweighted rule: 0/0
// would otherwise poison the accumulator with NaN (all such deltas are
// zero, so the value only needs to be finite).
func (s *Server) weightFor(n int) float64 {
	if s.norm == 0 {
		return 1 / float64(len(s.metas))
	}
	return s.baseWeight(n) / s.norm
}

// updateWeight returns the fold weight of the update matching meta m under
// the configured algorithm. An empty party (zero samples, zero steps) gets
// weight zero under FedNova: its delta is identically zero, and the tau
// division would otherwise produce 0*tauEff/0 = NaN.
func (s *Server) updateWeight(m UpdateMeta) float64 {
	if s.cfg.Algorithm != FedNova {
		return s.weightFor(m.N)
	}
	if m.Tau == 0 {
		return 0
	}
	return s.weightFor(m.N) * s.tauEff / float64(m.Tau)
}

// BeginRound opens a streaming aggregation round. metas lists the sampled
// parties' dataset sizes and step counts in dispatch order; each must then
// be finished (FinishUpdate) or dropped (DropUpdate) in the same order, so
// the floating-point fold order is deterministic for a given sample.
func (s *Server) BeginRound(metas []UpdateMeta) error {
	if s.inRound {
		return fmt.Errorf("fl: BeginRound during an open round")
	}
	if len(metas) == 0 {
		return fmt.Errorf("fl: no updates to aggregate")
	}
	s.norm = 0
	for _, m := range metas {
		if !validTau(m.N, m.Tau) {
			return fmt.Errorf("fl: update with non-positive tau %d", m.Tau)
		}
		s.norm += s.baseWeight(m.N)
	}
	s.metas = append(s.metas[:0], metas...)
	s.added = 0
	s.tauEff = 0
	s.curOff = 0
	s.dropped = 0
	if cap(s.dropMask) < len(metas) {
		s.dropMask = make([]bool, len(metas))
	}
	s.dropMask = s.dropMask[:len(metas)]
	for i := range s.dropMask {
		s.dropMask[i] = false
	}
	s.resetAccumulator()
	if s.cfg.Algorithm == FedNova {
		for _, m := range metas {
			s.tauEff += s.weightFor(m.N) * float64(m.Tau)
		}
	}
	s.inRound = true
	return nil
}

// resetAccumulator zeroes the pseudo-gradient accumulator, allocating it
// on first use.
func (s *Server) resetAccumulator() {
	if s.agg == nil {
		s.agg = make([]float64, len(s.state))
	}
	for i := range s.agg {
		s.agg[i] = 0
	}
}

// validateTrailer checks an update's aggregation metadata against the next
// unconsumed meta: the round's weights were fixed from the metas at
// BeginRound, so a mismatch would silently skew the aggregation.
func (s *Server) validateTrailer(u Update) (UpdateMeta, error) {
	if !validTau(u.N, u.Tau) {
		return UpdateMeta{}, fmt.Errorf("fl: update with non-positive tau %d", u.Tau)
	}
	meta := s.metas[s.cursor()]
	if u.N != meta.N || u.Tau != meta.Tau {
		return UpdateMeta{}, fmt.Errorf("fl: update (n=%d tau=%d) does not match expected meta (n=%d tau=%d)",
			u.N, u.Tau, meta.N, meta.Tau)
	}
	return meta, nil
}

// accumulate is the one fold kernel, shared by the synchronous round
// (FinishUpdate) and the buffered-async coordinator: it adds w x delta to
// the pseudo-gradient accumulator and advances FedDyn's h and SCAFFOLD's
// c, both of which normalize by the federation size N rather than by the
// round. disc is the staleness discount on those two — exactly 1 on the
// synchronous path, where multiplying by it changes no bit. Chunking only
// decides where delta was staged, never the order or the operands of
// these accumulations, which is what keeps every frame size bit-identical.
func (s *Server) accumulate(w, disc float64, delta, deltaC []float64) {
	for i, d := range delta {
		s.agg[i] += w * d
	}
	if s.cfg.Algorithm == FedDyn {
		// h <- h + (alpha/N) * sum_i Delta_i (params only).
		for i := 0; i < s.paramLen; i++ {
			s.dynH[i] += disc * s.cfg.Alpha * delta[i] / float64(s.numParties)
		}
	}
	if s.cfg.Algorithm == Scaffold {
		for i, d := range deltaC {
			s.control[i] += disc * d / float64(s.numParties)
		}
	}
}

// AddUpdateChunk stages one chunk of the current update's flattened
// stream — the state-length delta followed, for SCAFFOLD, by the
// parameter-length control delta (see StreamLen). idx is the update's
// index in the round's dispatch order and must be the next unconsumed
// one; offsets must arrive in order, without gaps or overlaps. The chunk
// is copied into the server's staging buffer and may be recycled as soon
// as the call returns. Nothing reaches the round accumulator until
// FinishUpdate, so a malformed stream can be abandoned with DropUpdate
// without corrupting the round.
func (s *Server) AddUpdateChunk(idx, offset int, chunk []float64) error {
	if !s.inRound {
		return fmt.Errorf("fl: AddUpdateChunk outside a round")
	}
	cur := s.cursor()
	if cur >= len(s.metas) {
		return fmt.Errorf("fl: more updates than sampled parties (%d)", len(s.metas))
	}
	if idx != cur {
		return fmt.Errorf("fl: chunk for update %d, expected %d", idx, cur)
	}
	if len(chunk) == 0 {
		return fmt.Errorf("fl: empty update chunk")
	}
	if offset != s.curOff {
		return fmt.Errorf("fl: chunk at offset %d, expected %d (out-of-order, overlapping or gapped frame)", offset, s.curOff)
	}
	total := s.StreamLen()
	if offset+len(chunk) > total {
		return fmt.Errorf("fl: chunk [%d,%d) exceeds stream length %d", offset, offset+len(chunk), total)
	}
	if s.cur == nil {
		s.cur = make([]float64, total)
	}
	copy(s.cur[offset:], chunk)
	s.curOff = offset + len(chunk)
	return nil
}

// FinishUpdate completes the current update: u carries only the trailer
// metadata (N, Tau, TrainLoss — Delta and DeltaC must be nil; the vectors
// are the staged chunk stream), which must match the next unconsumed meta,
// and the staged delta folds into the round.
func (s *Server) FinishUpdate(u Update) error {
	if !s.inRound {
		return fmt.Errorf("fl: FinishUpdate outside a round")
	}
	if s.cursor() >= len(s.metas) {
		return fmt.Errorf("fl: more updates than sampled parties (%d)", len(s.metas))
	}
	if u.Delta != nil || u.DeltaC != nil {
		return fmt.Errorf("fl: FinishUpdate trailer must not carry delta vectors")
	}
	if total := s.StreamLen(); s.curOff != total {
		return fmt.Errorf("fl: chunk stream incomplete: %d of %d elements staged", s.curOff, total)
	}
	meta, err := s.validateTrailer(u)
	if err != nil {
		return err
	}
	delta := s.cur[:len(s.state)]
	var deltaC []float64
	if s.cfg.Algorithm == Scaffold {
		deltaC = s.cur[len(s.state):s.StreamLen()]
	}
	s.curOff = 0
	s.accumulate(s.updateWeight(meta), 1, delta, deltaC)
	s.added++
	return nil
}

// DropUpdate abandons the current (in-progress or next expected) update
// and removes its party from the round: any staged chunks are discarded,
// and FinishRound renormalizes the surviving parties' weights. Use it when
// a client's stream arrives malformed or its transport dies mid-round —
// the round completes from the survivors instead of aborting.
func (s *Server) DropUpdate() error {
	if !s.inRound {
		return fmt.Errorf("fl: DropUpdate outside a round")
	}
	cur := s.cursor()
	if cur >= len(s.metas) {
		return fmt.Errorf("fl: no update left to drop")
	}
	s.curOff = 0
	s.dropMask[cur] = true
	s.dropped++
	return nil
}

// FinishRound closes the round and applies the accumulated pseudo-gradient
// to the global state through the configured server optimizer. If any
// updates were dropped mid-round, the accumulator is first renormalized to
// the surviving parties' weights.
func (s *Server) FinishRound() error {
	if !s.inRound {
		return fmt.Errorf("fl: FinishRound outside a round")
	}
	if s.added+s.dropped != len(s.metas) {
		return fmt.Errorf("fl: round incomplete: %d of %d updates", s.added+s.dropped, len(s.metas))
	}
	if s.added == 0 {
		// Unlike other FinishRound failures the round leaves no residue
		// (no update folded, so control/h are untouched); close it so the
		// caller may retry with a fresh BeginRound.
		s.inRound = false
		return ErrAllDropped
	}
	s.inRound = false
	scale := 1.0
	if s.dropped > 0 {
		scale = s.dropScale()
	}
	s.apply(scale)
	return nil
}

// apply is the one apply step, shared by FinishRound and the async flush:
// it scales the accumulator (a no-op at exactly 1), moves the global state
// by it through the server optimizer and applies FedDyn's correction.
func (s *Server) apply(scale float64) {
	if scale != 1 {
		for i := range s.agg {
			s.agg[i] *= scale
		}
	}
	s.applyUpdate(s.agg)
	if s.cfg.Algorithm == FedDyn {
		// w <- mean(w_i) - h/alpha.
		for i := 0; i < s.paramLen; i++ {
			s.state[i] -= s.dynH[i] / s.cfg.Alpha
		}
	}
}

// dropScale returns the scalar that renormalizes the round accumulator
// after mid-round drops. Every folded update used the weights fixed at
// BeginRound, which still counted the dropped parties; for all six
// algorithms the exact correction is one uniform scalar, because the
// per-update weights all share the same normalizer (the base-weight sum,
// times FedNova's effective step count):
//
//	weighted:   n_j/totalN      -> n_j/survN       ratio totalN/survN
//	unweighted: 1/K             -> 1/K'            ratio K/K'
//	FedNova:    w_j*tauEff/tau_j -> w'_j*tauEff'/tau_j
//	            ratio (totalN/survN) * (tauEff'/tauEff)
//
// SCAFFOLD's control variate and FedDyn's h normalize by the federation
// size N (not the round), so drops leave them untouched.
func (s *Server) dropScale() float64 {
	survNorm, survK := 0.0, 0
	for j, m := range s.metas {
		if !s.dropMask[j] {
			survNorm += s.baseWeight(m.N)
			survK++
		}
	}
	// An all-empty sample or survivor set weighs its parties uniformly
	// (see weightFor).
	uniform := s.norm == 0 || survNorm == 0
	r := s.norm / survNorm
	if uniform {
		r = float64(len(s.metas)) / float64(survK)
	}
	if s.cfg.Algorithm == FedNova {
		var tauEffNew float64
		for j, m := range s.metas {
			if s.dropMask[j] {
				continue
			}
			w := s.baseWeight(m.N) / survNorm
			if uniform {
				w = 1 / float64(survK)
			}
			tauEffNew += w * float64(m.Tau)
		}
		if s.tauEff != 0 {
			r *= tauEffNew / s.tauEff
		}
	}
	return r
}

// AbortRound abandons an open round (e.g. a transport failure mid-round).
// Contributions already folded into SCAFFOLD's control variate or FedDyn's
// h are not rolled back, so a server whose round aborted should not be
// trusted for further rounds.
func (s *Server) AbortRound() { s.inRound = false }

// serverMomentumBeta is ServerMomentum's coefficient (FedAvgM's usual
// value). ConfigFingerprint mixes it.
const serverMomentumBeta = 0.9

// applyUpdate moves the global state by the aggregated delta through the
// configured server optimizer. agg is a pseudo-gradient: plain SGD is the
// paper's setup; momentum and Adam are the FedOpt extensions.
func (s *Server) applyUpdate(agg []float64) {
	switch s.cfg.ServerOptimizer {
	case ServerMomentum:
		if s.velocity == nil {
			s.velocity = make([]float64, len(s.state))
		}
		for i := range s.state {
			s.velocity[i] = serverMomentumBeta*s.velocity[i] + agg[i]
			s.state[i] -= s.cfg.ServerLR * s.velocity[i]
		}
	case ServerAdam:
		if s.adamM == nil {
			s.adamM = make([]float64, len(s.state))
			s.adamV = make([]float64, len(s.state))
		}
		const (
			beta1 = 0.9
			beta2 = 0.999
			eps   = 1e-8
		)
		s.adamT++
		bc1 := 1 - math.Pow(beta1, float64(s.adamT))
		bc2 := 1 - math.Pow(beta2, float64(s.adamT))
		for i := range s.state {
			s.adamM[i] = beta1*s.adamM[i] + (1-beta1)*agg[i]
			s.adamV[i] = beta2*s.adamV[i] + (1-beta2)*agg[i]*agg[i]
			mHat := s.adamM[i] / bc1
			vHat := s.adamV[i] / bc2
			s.state[i] -= s.cfg.ServerLR * mHat / (math.Sqrt(vHat) + eps)
		}
	default:
		for i := range s.state {
			s.state[i] -= s.cfg.ServerLR * agg[i]
		}
	}
}
