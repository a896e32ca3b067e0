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
//     shared between goroutines; clone per party instead. Backward writes
//     each parameter gradient rather than adding to it, so a training
//     step needs no zeroing pass.
//   - Layers own their outputs: Forward and Backward return per-layer
//     scratch tensors (grown with tensor.Ensure, reused across batches),
//     valid only until the layer's next Forward/Backward call. Steady-state
//     training therefore allocates nothing — the "no tensor.NewOf in the
//     hot path" rule from the tensor package. Callers that need a tensor
//     to outlive the next batch must copy it.
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

// Param is a learnable tensor together with its gradient, which each
// Backward overwrites.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
}

// newParam allocates a parameter; grad is false only on an inference
// replica (BuildInference, which hands the constructors a nil RNG): it
// never runs backward and so carries no gradient.
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
// writing its parameters' gradients along the way: they hold the last
// batch's gradient alone, so nothing needs zeroing between steps.
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
}

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

// buildCaches flattens the parameter and buffer lists once.
func (m *Sequential) buildCaches() {
	for _, l := range m.Layers {
		m.params = append(m.params, l.Params()...)
		if bl, ok := l.(Buffered); ok {
			m.buffers = append(m.buffers, bl.Buffers()...)
		}
	}
	m.cached = true
}

// Forward runs the layers in order. train selects training-mode behaviour
// (batch statistics in batch norm).
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the output gradient through the layers in reverse,
// writing every parameter gradient.
func (m *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// paramBackwarder is implemented by layers (Dense, Conv2D) whose Backward
// splits into "write dW, db" and "form dx": backwardParams is the
// first half alone, with parameter gradients bitwise those of Backward.
type paramBackwarder interface {
	backwardParams(grad *tensor.Tensor)
}

// BackwardParams is Backward for callers that discard the returned input
// gradient — every training loop, since nothing sits below the first
// layer. It writes exactly the parameter gradients Backward would,
// but never forms the first layer's input gradient (a GEMM against Wᵀ;
// for a convolution, tensor.ConvInputGradInto) nor allocates its
// scratch. A first layer that cannot split falls back to Backward.
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
