package fl

import (
	"iter"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/optim"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Update is what a party returns to the server after local training
// (Algorithm 1 lines 22-23 / Algorithm 2 lines 22-26).
type Update struct {
	// Delta is w^t - w_i^t over the full model state (parameters followed
	// by buffers), so the server applies the update by subtracting it.
	Delta []float64
	// Tau is the number of local SGD steps taken (mini-batches).
	Tau int
	// DeltaC is SCAFFOLD's control-variate delta over parameters; nil for
	// other algorithms.
	DeltaC []float64
	// Kept is the number of non-zero parameter-delta entries after top-k
	// compression (equals the parameter count when compression is off).
	Kept int
	// N is the local dataset size used for weighting.
	N int
	// TrainLoss is the mean mini-batch loss over the final local epoch.
	TrainLoss float64
}

// Client is one party in the federation. It owns a local dataset, a model
// replica and (for SCAFFOLD) a persistent control variate.
//
// Training scratch is reused across epochs and rounds: the model's layers
// hold their own forward/backward buffers, small per-batch scratch (batch
// labels, shuffled indices, the loss gradient) lives on the client, and
// round-scoped vectors (state copies, SCAFFOLD accumulators, the batch
// feature tensor) come from a tensor.Workspace backed by the process-wide
// shared pool — so only the K sampled parties of a round hold workspace
// memory, not all N parties.
type Client struct {
	ID    int
	Data  *data.Dataset
	Spec  nn.ModelSpec
	model *nn.Sequential
	r     *rng.RNG
	// scaffoldC is the party's control variate c_i (parameter-length),
	// persisted across rounds per Algorithm 2.
	scaffoldC []float64
	// localBN holds this party's batch-norm buffer values when the
	// KeepBNStatsLocal ablation is enabled.
	localBN []float64
	// dynH is FedDyn's accumulated first-order state (parameter-length),
	// persisted across rounds.
	dynH []float64
	// prevState is MOON's previous-round local model state; auxGlobal and
	// auxPrev are frozen replicas used to extract representations.
	prevState []float64
	auxGlobal *nn.Sequential
	auxPrev   *nn.Sequential
	// Reusable training scratch (see the type comment).
	ws       *tensor.Workspace
	opt      *optim.SGD
	idx      []int
	yBuf     []int
	lossGrad *tensor.Tensor
	moon     moonScratch
	// cmp is the kernel compute budget this client trains under; the round
	// engine splits the machine across the concurrently-training clients.
	cmp tensor.Compute
}

// SetComputeBudget installs the kernel compute budget for this client's
// local training: the client's model (and MOON's frozen replicas) cap
// their per-kernel goroutine fan-out at the budget. Budgets are per-client
// state — concurrent clients, and concurrent Simulations, never share a
// knob.
func (c *Client) SetComputeBudget(cmp tensor.Compute) {
	c.cmp = cmp
	c.model.SetCompute(cmp)
	if c.auxGlobal != nil {
		c.auxGlobal.SetCompute(cmp)
		c.auxPrev.SetCompute(cmp)
	}
}

// NewClient builds a party with its own deterministic RNG stream.
func NewClient(id int, local *data.Dataset, spec nn.ModelSpec, r *rng.RNG) *Client {
	return &Client{ID: id, Data: local, Spec: spec, model: nn.Build(spec, r), r: r}
}

// ParamCount returns the learnable parameter count of the party's model.
func (c *Client) ParamCount() int { return c.model.ParamCount() }

// ScaffoldControl returns the party's persistent SCAFFOLD control variate
// c_i (nil before the first SCAFFOLD round). Not a copy; callers must not
// mutate it.
func (c *Client) ScaffoldControl() []float64 { return c.scaffoldC }

// SetScaffoldControl installs a control variate — the rejoin resync path,
// where the server replays the c_i it tracked from this party's past
// control-delta uploads so even a party that lost its local state resumes
// exactly where it left off. A nil argument is a no-op (nothing to
// restore).
func (c *Client) SetScaffoldControl(v []float64) {
	if v == nil {
		return
	}
	c.scaffoldC = append(c.scaffoldC[:0], v...)
}

// StateCount returns the full state length of the party's model.
func (c *Client) StateCount() int { return c.model.StateCount() }

// workspace returns the client's lazily-created round workspace.
func (c *Client) workspace() *tensor.Workspace {
	if c.ws == nil {
		c.ws = tensor.NewWorkspace(nil)
	}
	return c.ws
}

// optimizer returns the client's persistent SGD optimizer, reconfigured
// for a fresh round: momentum buffers zeroed (parties restart from the
// round's global model) and last round's corrector dropped.
func (c *Client) optimizer(cfg Config) *optim.SGD {
	if c.opt == nil {
		c.opt = optim.NewSGD(cfg.LR, cfg.Momentum)
		return c.opt
	}
	c.opt.LR, c.opt.Momentum = cfg.LR, cfg.Momentum
	c.opt.Reset()
	c.opt.Corrector = nil
	return c.opt
}

// indices fills the client's reusable index slice with 0..n-1 (the
// caller shuffles it per epoch).
func (c *Client) indices(n int) []int {
	if cap(c.idx) < n {
		c.idx = make([]int, n)
	}
	c.idx = c.idx[:n]
	for i := range c.idx {
		c.idx[i] = i
	}
	return c.idx
}

// PendingUpdate is a trained-but-undelivered update whose delta vectors
// live in the owning client's pooled round workspace: transports fold or
// serialize it (Update), then give the memory back with Release. A client
// must not train again until its pending update is released.
type PendingUpdate struct {
	u  Update
	ws *tensor.Workspace
}

// Update returns the whole update. Its Delta/DeltaC slices alias pooled
// workspace memory and are valid only until Release.
func (p *PendingUpdate) Update() Update { return p.u }

// Chunks emits the update's flattened stream — delta first, then
// SCAFFOLD's control delta — as consecutive views of at most size
// elements, with offsets indexing the combined stream. The views alias
// pooled memory: the receiver must fold or serialize each chunk before
// returning from emit. Chunks never cross the delta/control boundary. A
// non-positive size emits each vector as a single chunk.
func (p *PendingUpdate) Chunks(size int, emit func(offset int, chunk []float64) error) error {
	return ChunkStream(p.u.Delta, p.u.DeltaC, size, emit)
}

// ChunkStream emits the flattened two-vector stream — a first, then b —
// as consecutive views of at most size elements, with offsets indexing
// the combined stream. Chunks never cross the a/b seam; a non-positive
// size emits each vector as a single chunk. It is the one definition of
// the protocol's chunk framing, shared by the simnet uplink (delta then
// control delta) and downlink broadcast (state then server control), so
// the two directions' framing can never silently diverge.
func ChunkStream(a, b []float64, size int, emit func(offset int, chunk []float64) error) error {
	off := 0
	for _, vec := range [2][]float64{a, b} {
		for start := 0; start < len(vec); {
			end := len(vec)
			if size > 0 && start+size < end {
				end = start + size
			}
			if err := emit(off, vec[start:end]); err != nil {
				return err
			}
			off += end - start
			start = end
		}
	}
	return nil
}

// Release returns the update's workspace memory to the pool. The update's
// vectors (and any chunk views of them) must not be used afterwards.
func (p *PendingUpdate) Release() { p.ws.Release() }

// TrainStream runs E local epochs of mini-batch SGD from the given global
// state. serverC is SCAFFOLD's server control variate (nil otherwise); the
// config must be normalized. The returned update's vectors stay in the
// client's pooled workspace, so transports can stream them chunk-at-a-time
// (or serialize them frame by frame) without a second state-length
// allocation per update. The caller owns the pending update and must
// Release it before this client trains again.
func (c *Client) TrainStream(global []float64, serverC []float64, cfg Config) *PendingUpdate {
	paramLen := c.model.ParamCount()
	ws := c.workspace()
	if c.Data.Len() == 0 {
		// A party with no local data trains zero steps and reports an
		// all-zero delta. Guarded here because the batching loop — and
		// SCAFFOLD's 1/(tau*eta) control update — divide by the step
		// count; the server weights such parties at zero.
		u := Update{Delta: ws.GetRaw(tensor.Float64, c.model.StateCount()).Data(), Kept: paramLen}
		clear(u.Delta)
		if cfg.CompressTopK > 0 {
			u.Kept = 0
		}
		if cfg.Algorithm == Scaffold {
			u.DeltaC = ws.GetRaw(tensor.Float64, paramLen).Data()
			clear(u.DeltaC)
		}
		return &PendingUpdate{u: u, ws: ws}
	}
	if cfg.KeepBNStatsLocal && c.localBN != nil {
		// FedBN-style ablation: take the global parameters but keep this
		// party's own batch-norm statistics.
		full := ws.GetRaw(tensor.Float64, len(global)).Data()
		copy(full, global)
		copy(full[paramLen:], c.localBN)
		c.model.SetState(full)
	} else {
		c.model.SetState(global)
	}

	opt := c.optimizer(cfg)
	switch cfg.Algorithm {
	case FedProx:
		if cfg.Mu > 0 {
			opt.Corrector = &optim.Proximal{Mu: cfg.Mu, Global: global[:paramLen]}
		}
	case Scaffold:
		if c.scaffoldC == nil {
			c.scaffoldC = make([]float64, paramLen)
		}
		opt.Corrector = &optim.Scaffold{Local: c.scaffoldC, Server: serverC}
	case FedDyn:
		if c.dynH == nil {
			c.dynH = make([]float64, paramLen)
		}
		opt.Corrector = &optim.Dyn{Alpha: cfg.Alpha, Global: global[:paramLen], H: c.dynH}
	case Moon:
		c.readyMoon(global)
	}

	n := c.Data.Len()
	idx := c.indices(n)
	xBuf := ws.GetRaw(c.Spec.DType, min(cfg.BatchSize, n), c.Data.FeatLen)
	tau := 0
	var lastEpochLoss float64
	for epoch := 0; epoch < cfg.LocalEpochs; epoch++ {
		c.r.Shuffle(idx)
		var epochLoss float64
		batches := 0
		for x, y := range c.batches(idx, cfg.BatchSize, xBuf) {
			epochLoss += c.gradient(x, y, cfg)
			if cfg.DPClip > 0 {
				dpSanitize(c.model, cfg.DPClip, cfg.DPNoise, len(y), c.r)
			}
			opt.Step(c.model)
			batches++
		}
		tau += batches
		lastEpochLoss = epochLoss / float64(batches)
	}
	return &PendingUpdate{u: c.finish(global, serverC, tau, lastEpochLoss, cfg, ws), ws: ws}
}

// batches walks idx in mini-batches of at most bs samples — the one
// batching loop, which PredictTau mirrors — gathering each batch into x (a
// tensor with room for bs samples) and yielding it shaped for the model
// with its labels. Both are overwritten by the next batch.
func (c *Client) batches(idx []int, bs int, x *tensor.Tensor) iter.Seq2[*tensor.Tensor, []int] {
	return func(yield func(*tensor.Tensor, []int) bool) {
		for start := 0; start < len(idx); start += bs {
			x, c.yBuf = c.Data.BatchInto(x, c.yBuf, idx[start:min(start+bs, len(idx))])
			if !yield(c.Spec.ShapeBatch(x), c.yBuf) {
				return
			}
		}
	}
}

// gradient writes the batch's loss gradient into the model's parameter
// gradients and returns the loss. Every algorithm takes the same path:
// forward through the body (every layer but the last) to the
// representation z, then the head; cross-entropy; back through the head;
// MOON adds its contrastive gradient at z; back through the body. That is
// the sequence of layer calls Sequential.Forward and BackwardParams make,
// and the body is read from the model's layers on every call.
func (c *Client) gradient(x *tensor.Tensor, y []int, cfg Config) float64 {
	body, head := split(c.model)
	z := body.Forward(x, true)
	var l float64
	l, c.lossGrad = nn.SoftmaxCrossEntropy{}.LossInto(c.lossGrad, head.Forward(z, true), y)
	g := head.Backward(c.lossGrad)
	if cfg.Algorithm == Moon {
		l += cfg.MoonMu * c.addContrastive(x, z, g, cfg.MoonMu/float64(len(y)))
	}
	body.BackwardParams(g)
	return l
}

// split returns m's body — every layer but the last, viewed in place — and
// its head, the final classifier layer, whose input is the representation
// MOON contrasts.
func split(m *nn.Sequential) (nn.Sequential, nn.Layer) {
	last := len(m.Layers) - 1
	return nn.Sequential{Layers: m.Layers[:last]}, m.Layers[last]
}

// finish turns the trained model into the round's update, the same way for
// every algorithm. The trained state lands in the delta buffer and is
// subtracted from the global in place, so the update is the party's one
// state-length round vector; what must outlive the round is taken from
// the trained state first (the FedBN ablation's local statistics, MOON's
// previous model, a copy for SCAFFOLD's control update). Then the FedBN
// ablation reports no buffer delta, top-k sparsifies, SCAFFOLD updates c_i
// and FedDyn h_i.
func (c *Client) finish(global, serverC []float64, tau int, loss float64, cfg Config, ws *tensor.Workspace) Update {
	paramLen := c.model.ParamCount()
	delta := ws.GetRaw(tensor.Float64, c.model.StateCount()).Data()
	c.model.GetState(delta)
	var state []float64
	if cfg.Algorithm == Scaffold {
		state = ws.GetRaw(tensor.Float64, len(delta)).Data()
		copy(state, delta)
	}
	if cfg.KeepBNStatsLocal {
		c.localBN = append(c.localBN[:0], delta[paramLen:]...)
	}
	if cfg.Algorithm == Moon {
		c.prevState = append(c.prevState[:0], delta...)
	}
	for i := range delta {
		delta[i] = global[i] - delta[i]
	}
	if cfg.KeepBNStatsLocal {
		// The server keeps its own statistics untouched.
		clear(delta[paramLen:])
	}

	up := Update{Delta: delta, Tau: tau, N: c.Data.Len(), TrainLoss: loss, Kept: paramLen}
	if cfg.CompressTopK > 0 {
		up.Kept = compressTopK(delta, paramLen, cfg.CompressTopK)
	}
	if cfg.Algorithm == Scaffold {
		up.DeltaC = c.updateControlVariate(global, state, serverC, tau, cfg, ws)
	}
	if cfg.Algorithm == FedDyn {
		// h_i <- h_i - alpha*(w_i - w^t) = h_i + alpha*delta (params only).
		for i := 0; i < paramLen; i++ {
			c.dynH[i] += cfg.Alpha * delta[i]
		}
	}
	return up
}

// updateControlVariate implements Algorithm 2 lines 23-25 and returns
// Delta c = c_i* - c_i, persisting c_i* as the new local control variate.
func (c *Client) updateControlVariate(global, state, serverC []float64, tau int, cfg Config, ws *tensor.Workspace) []float64 {
	paramLen := c.model.ParamCount()
	cStar := ws.GetRaw(tensor.Float64, paramLen).Data()
	switch cfg.Variant {
	case ScaffoldGradient:
		// Option (i): gradient of the local data at the *global* model, one
		// pass in index order, each batch's mean-loss gradient weighted by
		// its share of the data.
		c.model.SetState(global)
		n := c.Data.Len()
		clear(cStar)
		grad := ws.GetRaw(tensor.Float64, paramLen).Data()
		xBuf := ws.GetRaw(c.Spec.DType, min(cfg.BatchSize, n), c.Data.FeatLen)
		for x, y := range c.batches(c.indices(n), cfg.BatchSize, xBuf) {
			c.gradient(x, y, cfg)
			c.model.GetGrads(grad)
			w := float64(len(y)) / float64(n)
			for i := range cStar {
				cStar[i] += w * grad[i]
			}
		}
		// Restore the trained state: the delta was already computed.
		c.model.SetState(state)
	default: // ScaffoldReuse, option (ii)
		// (w^t - w_i^t)/(tau*eta) estimates the mean gradient, but that
		// identity assumes plain SGD. With classical momentum m the total
		// displacement of tau steps of a constant gradient is
		// eta*g*sum_{t=1..tau} (1-m^t)/(1-m), so we divide by that
		// effective step count instead; otherwise the control variates are
		// overestimated by up to 1/(1-m) and SCAFFOLD diverges.
		inv := 1 / (effectiveSteps(tau, cfg.Momentum) * cfg.LR)
		for i := 0; i < paramLen; i++ {
			cStar[i] = c.scaffoldC[i] - serverC[i] + (global[i]-state[i])*inv
		}
	}
	deltaC := ws.GetRaw(tensor.Float64, paramLen).Data()
	for i := range deltaC {
		deltaC[i] = cStar[i] - c.scaffoldC[i]
	}
	copy(c.scaffoldC, cStar)
	return deltaC
}

// effectiveSteps returns the momentum-adjusted step count: the factor k
// such that tau steps of SGD-with-momentum on a constant gradient g move
// the weights by eta*g*k. For momentum 0 it is exactly tau.
func effectiveSteps(tau int, momentum float64) float64 {
	if momentum <= 0 {
		return float64(tau)
	}
	total := 0.0
	mPow := 1.0
	for t := 1; t <= tau; t++ {
		mPow *= momentum
		total += (1 - mPow) / (1 - momentum)
	}
	return total
}
