// Package nn implements the neural-network substrate for NIID-Bench: a
// small layer library (dense, convolution, pooling, batch normalization,
// activations) with hand-written backpropagation, a Sequential container,
// a softmax cross-entropy loss, and flat parameter/state vector utilities
// that the federated-learning layer uses to ship models between parties.
//
// Design notes:
//
//   - Parameters (weights learned by SGD) and buffers (batch-norm running
//     statistics) are kept distinct. Both travel in the model *state*
//     vector exchanged with the server — which is exactly how plain
//     averaging of batch-norm statistics produces the instability the
//     paper reports (Finding 11) — but optimizers touch parameters only.
//   - Layers are stateful across a Forward/Backward pair: Forward caches
//     whatever Backward needs. A model instance must therefore not be
//     shared between goroutines; clone per party instead.
//   - Layers own their outputs: Forward and Backward return per-layer
//     scratch tensors (grown with tensor.Ensure, reused across batches),
//     valid only until the layer's next Forward/Backward call. Steady-state
//     training therefore allocates nothing — the "no tensor.New in the hot
//     path" rule from the tensor package. Callers that need a tensor to
//     outlive the next batch must Clone it.
//   - Models have a compute dtype, chosen via ModelSpec.DType: parameters,
//     gradients, buffers and all layer scratch share it, so a Float32
//     model runs entirely on the float32 kernel set. The flat model-state
//     vectors exchanged with the federated server stay []float64 whatever
//     the dtype (GetState/SetState convert at the boundary), which keeps
//     aggregation in full precision.
package nn

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/tensor"
)

// Param is a learnable tensor together with its gradient accumulator.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
}

// newParam allocates a parameter; grad is false only on an inference
// replica (BuildInference, which hands the constructors a nil RNG): it
// never runs backward and so carries no gradient accumulator.
func newParam(dt tensor.DType, grad bool, name string, shape ...int) *Param {
	p := &Param{Name: name, Data: tensor.NewOf(dt, shape...)}
	if grad {
		p.Grad = tensor.NewOf(dt, shape...)
	}
	return p
}

// Buffer is non-learnable model state (e.g. batch-norm running mean) that
// is still part of the model and is communicated during federated rounds.
type Buffer struct {
	Name string
	Data *tensor.Tensor
}

// Layer is one differentiable stage of a network. Forward must be called
// before Backward; Backward receives the gradient of the loss with respect
// to the layer output and returns the gradient with respect to its input,
// accumulating parameter gradients along the way.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Buffered is implemented by layers that carry non-learnable state.
type Buffered interface {
	Buffers() []*Buffer
}

// ComputeAware is implemented by layers whose kernels can fan out across
// goroutines (dense, convolution) and by containers that forward the
// budget to such layers. SetCompute installs the kernel compute budget the
// layer runs under; the zero Compute means "all cores".
type ComputeAware interface {
	SetCompute(tensor.Compute)
}

// Sequential chains layers; the output of each is the input of the next.
// The layer list must not change after the first Forward/Params call: the
// flattened parameter and buffer lists are cached, since the training loop
// asks for them on every optimizer step.
type Sequential struct {
	Layers  []Layer
	params  []*Param
	buffers []*Buffer
	cached  bool
	// layerNeed[i] is the state-vector watermark layer i's Forward needs
	// installed: through the layer's own parameters, or — for buffered
	// layers — through its buffers too (which sit after all parameters in
	// the flat layout). Watermarks land on whole-tensor boundaries, so a
	// streaming install only ever copies complete tensors.
	layerNeed []int
	stream    *streamInstall
}

// streamInstall tracks a state vector being installed incrementally
// during a streaming Forward: src is the (possibly still-filling) flat
// state, wait blocks until at least n elements of src are valid (false
// means the stream died), installed is the high-water mark already
// copied into the layers.
type streamInstall struct {
	src       []float64
	wait      func(n int) bool
	installed int
}

// StreamAborted is the panic value a streaming Forward raises when its
// wait callback reports the stream dead mid-install. Callers that train
// on streamed state recover it and unwind; any other panic propagates.
type StreamAborted struct{}

// SetCompute installs the kernel compute budget every layer of the model
// runs under. Each model instance owns its budget, so per-client replicas
// in a federated round cap their kernel fan-out independently — no shared
// global knob. The zero Compute restores "all cores".
func (m *Sequential) SetCompute(c tensor.Compute) {
	for _, l := range m.Layers {
		if ca, ok := l.(ComputeAware); ok {
			ca.SetCompute(c)
		}
	}
}

// NewSequential builds a model from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// buildCaches flattens the parameter and buffer lists once, and derives
// each layer's streaming-install watermark from the flat layout.
func (m *Sequential) buildCaches() {
	paramEnd := make([]int, len(m.Layers))
	bufEnd := make([]int, len(m.Layers))
	pTot, bTot := 0, 0
	for i, l := range m.Layers {
		ps := l.Params()
		m.params = append(m.params, ps...)
		for _, p := range ps {
			pTot += p.Data.Len()
		}
		paramEnd[i] = pTot
		if bl, ok := l.(Buffered); ok {
			bs := bl.Buffers()
			m.buffers = append(m.buffers, bs...)
			for _, b := range bs {
				bTot += b.Data.Len()
			}
		}
		bufEnd[i] = bTot
	}
	m.layerNeed = make([]int, len(m.Layers))
	for i := range m.Layers {
		need := paramEnd[i]
		if buffered := i == 0 && bufEnd[i] > 0 || i > 0 && bufEnd[i] > bufEnd[i-1]; buffered {
			// Buffers live after every parameter in the flat vector, so a
			// buffered layer's watermark covers all parameters plus its own
			// buffers' end.
			need = pTot + bufEnd[i]
		}
		m.layerNeed[i] = need
	}
	m.cached = true
}

// Forward runs the layers in order. train selects training-mode behaviour
// (batch statistics in batch norm, active dropout). While a streaming
// install is in progress (SetStateStreaming), each layer's state is
// installed just before the layer first runs, so compute overlaps with
// whatever is still filling the source vector.
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if m.stream != nil {
		return m.forwardStreaming(x, train)
	}
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// SetStateStreaming arms a streaming install: the model's state will be
// copied in from src incrementally, layer by layer, as the first Forward
// walks the network — so forward compute on early layers overlaps the
// arrival of later layers' state. src must have length StateCount and
// must fill in order; wait(n) must block until src[:n] is valid and
// report false if it never will be (the streaming Forward then panics
// StreamAborted). A nil wait treats src as fully valid immediately. The
// install completes during the first full Forward (or FinishStreaming),
// after which the model behaves exactly as if SetState(src) had run:
// the same whole-tensor copies happen in the same order, only
// interleaved with compute.
func (m *Sequential) SetStateStreaming(src []float64, wait func(n int) bool) {
	if !m.cached {
		m.buildCaches()
	}
	if want := m.StateCount(); len(src) != want {
		panic(fmt.Sprintf("nn: SetStateStreaming src length %d, want %d", len(src), want))
	}
	m.stream = &streamInstall{src: src, wait: wait}
}

// FinishStreaming completes an in-progress streaming install — blocking
// until the full state is available — and returns the model to plain
// mode. No-op when no install is in progress.
func (m *Sequential) FinishStreaming() {
	if m.stream == nil {
		return
	}
	m.installTo(m.StateCount())
	m.stream = nil
}

// AbortStreaming drops an in-progress streaming install, leaving the
// model partially installed. The caller must SetState before reusing the
// model.
func (m *Sequential) AbortStreaming() { m.stream = nil }

func (m *Sequential) forwardStreaming(x *tensor.Tensor, train bool) *tensor.Tensor {
	st := m.stream
	for i, l := range m.Layers {
		if need := m.layerNeed[i]; need > st.installed {
			m.installTo(need)
		}
		x = l.Forward(x, train)
	}
	// The last layers' watermarks cover the whole vector, so the install
	// is complete; drop back to the plain path for every later batch.
	m.FinishStreaming()
	return x
}

// installTo waits for src[:need] and copies the not-yet-installed tensors
// inside [installed, need) into the model.
func (m *Sequential) installTo(need int) {
	st := m.stream
	if need <= st.installed {
		return
	}
	if st.wait != nil && !st.wait(need) {
		panic(StreamAborted{})
	}
	m.installRange(st.src, st.installed, need)
	st.installed = need
}

// installRange copies every tensor lying fully inside src[from:to) into
// the model, params then buffers — the same per-tensor copies SetState
// performs, restricted to the window. from and to always land on tensor
// boundaries (they are layerNeed watermarks or StateCount).
func (m *Sequential) installRange(src []float64, from, to int) {
	off := 0
	for _, p := range m.params {
		n := p.Data.Len()
		if off >= from && off+n <= to {
			p.Data.CopyFromF64(src[off:])
		}
		off += n
		if off >= to {
			return
		}
	}
	for _, b := range m.buffers {
		n := b.Data.Len()
		if off >= from && off+n <= to {
			b.Data.CopyFromF64(src[off:])
		}
		off += n
		if off >= to {
			return
		}
	}
}

// Backward propagates the output gradient through the layers in reverse,
// accumulating parameter gradients.
func (m *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// paramBackwarder is implemented by layers (Dense, Conv2D) whose Backward
// splits into "accumulate dW, db" and "form dx": backwardParams is the
// first half alone, with parameter gradients bitwise those of Backward.
type paramBackwarder interface {
	backwardParams(grad *tensor.Tensor)
}

// BackwardParams is Backward for callers that discard the returned input
// gradient — every training loop, since nothing sits below the first
// layer. It accumulates exactly the parameter gradients Backward would,
// but never forms the first layer's input gradient (a GEMM against Wᵀ
// plus, for a convolution, a col2im) nor allocates its scratch. A first
// layer that cannot split falls back to Backward.
func (m *Sequential) BackwardParams(grad *tensor.Tensor) {
	if len(m.Layers) == 0 {
		return
	}
	for i := len(m.Layers) - 1; i >= 1; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	if pb, ok := m.Layers[0].(paramBackwarder); ok {
		pb.backwardParams(grad)
	} else {
		m.Layers[0].Backward(grad)
	}
}

// Params returns every learnable parameter in layer order. The returned
// slice is cached and must not be modified.
func (m *Sequential) Params() []*Param {
	if !m.cached {
		m.buildCaches()
	}
	return m.params
}

// Buffers returns every non-learnable buffer in layer order. The returned
// slice is cached and must not be modified.
func (m *Sequential) Buffers() []*Buffer {
	if !m.cached {
		m.buildCaches()
	}
	return m.buffers
}

// ZeroGrads clears all parameter gradients.
func (m *Sequential) ZeroGrads() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the number of learnable scalar parameters.
func (m *Sequential) ParamCount() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Data.Len()
	}
	return n
}

// StateCount returns the length of the full state vector: parameters
// followed by buffers.
func (m *Sequential) StateCount() int {
	n := m.ParamCount()
	for _, b := range m.Buffers() {
		n += b.Data.Len()
	}
	return n
}

// GetState copies the model state (parameters then buffers) into dst,
// which must have length StateCount. Float32 models are widened: the
// state vector exchanged with the federated server is always float64.
func (m *Sequential) GetState(dst []float64) {
	off := 0
	for _, p := range m.Params() {
		p.Data.CopyToF64(dst[off:])
		off += p.Data.Len()
	}
	for _, b := range m.Buffers() {
		b.Data.CopyToF64(dst[off:])
		off += b.Data.Len()
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: GetState dst length %d, want %d", len(dst), off))
	}
}

// SetState loads the model state (parameters then buffers) from src,
// narrowing into Float32 models.
func (m *Sequential) SetState(src []float64) {
	off := 0
	for _, p := range m.Params() {
		p.Data.CopyFromF64(src[off:])
		off += p.Data.Len()
	}
	for _, b := range m.Buffers() {
		b.Data.CopyFromF64(src[off:])
		off += b.Data.Len()
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: SetState src length %d, want %d", len(src), off))
	}
}

// State returns a fresh copy of the full state vector.
func (m *Sequential) State() []float64 {
	s := make([]float64, m.StateCount())
	m.GetState(s)
	return s
}

// GetGrads copies the parameter gradients into dst (length ParamCount),
// widening Float32 gradients.
func (m *Sequential) GetGrads(dst []float64) {
	off := 0
	for _, p := range m.Params() {
		p.Grad.CopyToF64(dst[off:])
		off += p.Grad.Len()
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: GetGrads dst length %d, want %d", len(dst), off))
	}
}
