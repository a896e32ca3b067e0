package fl

import (
	"errors"
	"fmt"
	"math"
)

// ErrAllDropped reports a round in which every sampled update was dropped
// mid-stream. Nothing was folded, so the global state, SCAFFOLD control
// and FedDyn h are exactly as they were at BeginRound and the round is
// safely retryable: under elastic membership the engine attempts the
// round again, within the transport's quorum wait, instead of aborting.
var ErrAllDropped = errors.New("fl: every update in the round was dropped")

// UpdateMeta is what the server knows about an expected update before it
// arrives: the party's local dataset size (the aggregation weight) and its
// deterministic local step count. Both are fixed by the party's data and
// the run config, so BeginRound validates them up front and each arriving
// update is checked against its meta. Each update folds the moment it
// lands, holding O(state) memory instead of O(sampled x state).
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
// plus the FedDyn/MOON extensions, as a streaming accumulator. Every
// update, under both schedulers, arrives whole through fold, which checks
// its shape and adds its un-normalized weight w_i (baseWeight, times the
// staleness discount under async) to the accumulator; apply divides once
// by the folded weights' sum W. A synchronous round is a generation whose
// buffer is the sample: BeginRound opens it, each update folds in sampled
// order (or is dropped, DropUpdate, its weight never added) and
// FinishRound applies. With N the federation size:
//
//	FedAvg/FedProx/SCAFFOLD: w <- w - serverLR * sum_i (w_i/W) Delta_i
//	FedNova:                 w <- w - serverLR * tau_eff * sum_i (w_i/W) Delta_i / tau_i
//	                          with tau_eff = sum_i (w_i/W) tau_i
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

	// Accumulator state, reset by resetAccumulator. agg is the
	// pseudo-gradient accumulator, reused so steady state allocates
	// nothing per round beyond the metas slice; sumW is the folded
	// weights' sum and tauNum, under FedNova, the sum of weight x tau.
	agg    []float64
	sumW   float64
	tauNum float64

	// Synchronous-round state.
	metas   []UpdateMeta
	added   int
	dropped int
	inRound bool

	// Chunk-stager state (AddUpdateChunk/FinishUpdate), allocated on first
	// use: cur stages one update's chunk stream — the state-length delta
	// followed, for SCAFFOLD, by the parameter-length control delta — and
	// curOff is the next expected stream offset. The transports fold whole
	// updates and never touch it.
	cur    []float64
	curOff int
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

// streamLen returns the element count of one update's flattened stream:
// the full state-length delta plus, for SCAFFOLD, the parameter-length
// control delta.
func (s *Server) streamLen() int {
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
// models unweighted (Acar et al.). Both schedulers fold it — the async
// coordinator discounted by staleness — and apply divides by the folded
// sum, so neither normalizes ahead of time.
func (s *Server) baseWeight(n int) float64 {
	if s.cfg.Unweighted || s.cfg.Algorithm == FedDyn {
		return 1
	}
	return float64(n)
}

// BeginRound opens a streaming aggregation round. metas lists the sampled
// parties' dataset sizes and step counts in dispatch order; each must then
// be folded or dropped (DropUpdate) in the same order, so the
// floating-point fold order is deterministic for a given sample.
func (s *Server) BeginRound(metas []UpdateMeta) error {
	if s.inRound {
		return fmt.Errorf("fl: BeginRound during an open round")
	}
	if len(metas) == 0 {
		return fmt.Errorf("fl: no updates to aggregate")
	}
	for _, m := range metas {
		if !validTau(m.N, m.Tau) {
			return fmt.Errorf("fl: update with non-positive tau %d", m.Tau)
		}
	}
	s.metas = append(s.metas[:0], metas...)
	s.added = 0
	s.curOff = 0
	s.dropped = 0
	s.resetAccumulator()
	s.inRound = true
	return nil
}

// resetAccumulator zeroes the pseudo-gradient accumulator and both weight
// sums, allocating the accumulator on first use.
func (s *Server) resetAccumulator() {
	if s.agg == nil {
		s.agg = make([]float64, len(s.state))
	}
	for i := range s.agg {
		s.agg[i] = 0
	}
	s.sumW = 0
	s.tauNum = 0
}

// accumulate is the one fold kernel, reached only through fold: it adds the
// un-normalized weight w to sumW and w x delta to the pseudo-gradient
// accumulator — under FedNova w x tau to tauNum and (w/tau) x delta, an
// empty party (tau 0) folding nothing — and advances FedDyn's h and
// SCAFFOLD's c, both of which normalize by the federation size N rather
// than by the round. disc is the staleness discount on those two — exactly
// 1 on the synchronous path, where multiplying by it changes no bit.
// Framing only decides where delta was assembled, never the order or the
// operands of these accumulations, which is what keeps every frame size
// bit-identical.
func (s *Server) accumulate(w, disc float64, tau int, delta, deltaC []float64) {
	s.sumW += w
	if s.cfg.Algorithm == FedNova {
		s.tauNum += w * float64(tau)
		if tau == 0 {
			w = 0
		} else {
			w /= float64(tau)
		}
	}
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

// fold is the one ingest, shared by the synchronous round (foldNext) and
// the buffered-async coordinator: it checks a whole update's shape — a
// state-length delta and, for SCAFFOLD, a parameter-length control delta —
// and its step count, then accumulates it with weight w and discount disc.
// The vectors are read during the call only, so a transport may hand in
// views of its pooled receive buffers and recycle them when fold returns.
func (s *Server) fold(w, disc float64, u Update) error {
	if len(u.Delta) != len(s.state) || len(u.Delta)+len(u.DeltaC) != s.streamLen() {
		return fmt.Errorf("fl: update lengths %d+%d, want state %d of a %d-element stream",
			len(u.Delta), len(u.DeltaC), len(s.state), s.streamLen())
	}
	if !validTau(u.N, u.Tau) {
		return fmt.Errorf("fl: update with non-positive tau %d", u.Tau)
	}
	s.accumulate(w, disc, u.Tau, u.Delta, u.DeltaC)
	return nil
}

// next checks that a round is open and idx is its next unconsumed update:
// every earlier one was folded or dropped.
func (s *Server) next(idx int) error {
	if !s.inRound {
		return fmt.Errorf("fl: update outside a round")
	}
	if cur := s.cursor(); cur >= len(s.metas) {
		return fmt.Errorf("fl: more updates than sampled parties (%d)", len(s.metas))
	} else if idx != cur {
		return fmt.Errorf("fl: update %d, expected %d", idx, cur)
	}
	return nil
}

// foldNext folds the round's update idx, which must be the next in
// dispatch order. Its N and Tau must match that update's meta: the metas
// come from outside the update (the transport's hello or the party
// table), so an update that disagrees is refused rather than folded with
// a weight the round did not expect. A refused update leaves the round
// untouched; the caller drops it.
func (s *Server) foldNext(idx int, u Update) error {
	if err := s.next(idx); err != nil {
		return err
	}
	if meta := s.metas[idx]; u.N != meta.N || u.Tau != meta.Tau {
		return fmt.Errorf("fl: update (n=%d tau=%d) does not match expected meta (n=%d tau=%d)",
			u.N, u.Tau, meta.N, meta.Tau)
	}
	if err := s.fold(s.baseWeight(u.N), 1, u); err != nil {
		return err
	}
	s.added++
	return nil
}

// AddUpdateChunk stages one chunk of the next update's flattened stream
// (the delta, then SCAFFOLD's control delta) for FinishUpdate, which folds
// the staged stream as one whole update. The pair is a chunk-at-a-time
// stager over the round's one fold, kept for callers that hold an update
// only in pieces; the transports fold whole updates. idx is the update's
// index in dispatch order and must be the next unconsumed one; offsets
// must arrive in order, without gaps or overlaps. The chunk is copied.
func (s *Server) AddUpdateChunk(idx, offset int, chunk []float64) error {
	if err := s.next(idx); err != nil {
		return err
	}
	if len(chunk) == 0 {
		return fmt.Errorf("fl: empty update chunk")
	}
	if offset != s.curOff {
		return fmt.Errorf("fl: chunk at offset %d, expected %d (out-of-order, overlapping or gapped frame)", offset, s.curOff)
	}
	total := s.streamLen()
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

// FinishUpdate folds the staged chunk stream as the next update: u carries
// only the trailer metadata (N, Tau, TrainLoss — Delta and DeltaC must be
// nil). A refused trailer keeps the staged stream, so a corrected one may
// still finish it.
func (s *Server) FinishUpdate(u Update) error {
	if u.Delta != nil || u.DeltaC != nil {
		return fmt.Errorf("fl: FinishUpdate trailer must not carry delta vectors")
	}
	if total := s.streamLen(); s.curOff != total {
		return fmt.Errorf("fl: chunk stream incomplete: %d of %d elements staged", s.curOff, total)
	}
	u.Delta, u.DeltaC = s.cur[:len(s.state)], s.cur[len(s.state):]
	if err := s.foldNext(s.cursor(), u); err != nil {
		return err
	}
	s.curOff = 0
	return nil
}

// DropUpdate abandons the next expected update and removes its party from
// the round: any staged chunks are discarded and its weight is never folded, so the round is exactly the one the
// survivors alone would have made. Use it when a client's stream arrives
// malformed or its transport dies mid-round — the round completes from
// the survivors instead of aborting.
func (s *Server) DropUpdate() error {
	if err := s.next(s.cursor()); err != nil {
		return err
	}
	s.curOff = 0
	s.dropped++
	return nil
}

// FinishRound closes the round and applies the accumulated pseudo-gradient,
// divided once by the folded weights' sum, to the global state through the
// configured server optimizer. Dropped updates never added a weight, so
// that sum is the survivors'.
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
	s.apply()
	return nil
}

// apply is the one apply step, shared by FinishRound and the async flush:
// it scales the accumulator by 1/sumW — under FedNova by tauNum/sumW^2,
// the effective step count tauNum/sumW over one more sumW — moves the
// global state by it through the server optimizer and applies FedDyn's
// correction. A zero weight sum (only empty parties folded, whose deltas
// are zero) scales by 0 instead; the optimizer still steps, so momentum
// and Adam advance the same way under either scheduler.
func (s *Server) apply() {
	scale := 0.0
	if s.sumW > 0 {
		scale = 1 / s.sumW
		if s.cfg.Algorithm == FedNova {
			scale = s.tauNum / (s.sumW * s.sumW)
		}
	}
	for i := range s.agg {
		s.agg[i] *= scale
	}
	s.applyUpdate(s.agg)
	if s.cfg.Algorithm == FedDyn {
		// w <- mean(w_i) - h/alpha.
		for i := 0; i < s.paramLen; i++ {
			s.state[i] -= s.dynH[i] / s.cfg.Alpha
		}
	}
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
