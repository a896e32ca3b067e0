package nn

import (
	"math"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// initHeUniform fills a parameter tensor with He-uniform values drawn
// from r, whatever the tensor's dtype. A nil r marks an inference replica
// (BuildInference): its weights stay zero for SetState to fill.
func initHeUniform(t *tensor.Tensor, fanIn int, r *rng.RNG) {
	if r == nil {
		return
	}
	bound := math.Sqrt(6.0 / float64(fanIn))
	if t.DType() == tensor.Float32 {
		heUniform(t.Data32(), bound, r)
	} else {
		heUniform(t.Data(), bound, r)
	}
}

func heUniform[T tensor.Elem](w []T, bound float64, r *rng.RNG) {
	for i := range w {
		w[i] = T((2*r.Float64() - 1) * bound)
	}
}

// Dense is a fully connected layer: y = xW + b with x of shape (batch, in).
type Dense struct {
	W, B *Param
	dt   tensor.DType
	cmp  tensor.Compute // kernel fan-out budget (zero = all cores)
	in   *tensor.Tensor // cached input for the backward pass
	out  *tensor.Tensor // forward scratch
	dx   *tensor.Tensor // backward scratch: input gradient
}

// SetCompute installs the kernel compute budget for the layer's matmuls.
func (d *Dense) SetCompute(c tensor.Compute) { d.cmp = c }

// NewDenseOf creates a dense layer with He-uniform initialized weights,
// the standard choice for ReLU networks; dt is the compute dtype of the
// parameters, gradients and layer scratch.
func NewDenseOf(dt tensor.DType, in, out int, r *rng.RNG) *Dense {
	d := &Dense{W: newParam(dt, r != nil, "dense.W", in, out), B: newParam(dt, r != nil, "dense.b", out), dt: dt}
	initHeUniform(d.W.Data, in, r)
	return d
}

// Forward computes xW + b. The returned tensor is layer-owned scratch,
// valid until the next Forward call.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.in = x
	d.out = tensor.EnsureOf(d.dt, d.out, x.Dim(0), d.W.Data.Dim(1))
	d.cmp.MatMulInto(d.out, x, d.W.Data)
	d.out.AddRowVector(d.B.Data)
	return d.out
}

// Backward writes dW, db and returns dx.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	// dx = g Wᵀ
	d.dx = tensor.EnsureOf(d.dt, d.dx, grad.Dim(0), d.W.Data.Dim(0))
	d.cmp.MatMulTransBInto(d.dx, grad, d.W.Data)
	return d.dx
}

// backwardParams is the parameter half of Backward: dW and db only.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	// dW = xᵀ g
	d.cmp.MatMulTransAInto(d.W.Grad, d.in, grad)
	// db = column sums of g
	grad.ColSumsInto(d.B.Grad)
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU applies max(0, x) element-wise. It is dtype-agnostic: the scratch
// follows the input's dtype.
type ReLU struct {
	mask []bool
	out  *tensor.Tensor // forward scratch
	dx   *tensor.Tensor // backward scratch
}

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// The ReLU kernels select through the bits: v & k with k all ones or all
// zeros. The `if` that sets the integer k compiles to a conditional move;
// Go emits those only for integer-shaped values, so an `if` that assigned
// the float itself would stay a branch, one the predictor cannot guess on
// activations whose sign is noise. NaN and -0 give +0 with mask false, and
// +Inf passes.

func reluForward64(xd, od []float64, mask []bool) {
	od = od[:len(xd)]
	mask = mask[:len(xd)]
	for i, v := range xd {
		var k uint64
		if v > 0 {
			k = ^k
		}
		od[i] = math.Float64frombits(math.Float64bits(v) & k)
		mask[i] = v > 0
	}
}

func reluForward32(xd, od []float32, mask []bool) {
	od = od[:len(xd)]
	mask = mask[:len(xd)]
	for i, v := range xd {
		var k uint32
		if v > 0 {
			k = ^k
		}
		od[i] = math.Float32frombits(math.Float32bits(v) & k)
		mask[i] = v > 0
	}
}

func reluBackward64(gd, od []float64, mask []bool) {
	od = od[:len(gd)]
	mask = mask[:len(gd)]
	for i, g := range gd {
		var k uint64
		if mask[i] {
			k = ^k
		}
		od[i] = math.Float64frombits(math.Float64bits(g) & k)
	}
}

func reluBackward32(gd, od []float32, mask []bool) {
	od = od[:len(gd)]
	mask = mask[:len(gd)]
	for i, g := range gd {
		var k uint32
		if mask[i] {
			k = ^k
		}
		od[i] = math.Float32frombits(math.Float32bits(g) & k)
	}
}

// Forward zeroes negative entries and records which survived.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out = tensor.EnsureOf(x.DType(), l.out, x.Shape()...)
	if cap(l.mask) < x.Len() {
		l.mask = make([]bool, x.Len())
	}
	l.mask = l.mask[:x.Len()]
	if x.DType() == tensor.Float32 {
		reluForward32(x.Data32(), l.out.Data32(), l.mask)
	} else {
		reluForward64(x.Data(), l.out.Data(), l.mask)
	}
	return l.out
}

// Backward passes gradients through surviving entries only.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = tensor.EnsureOf(grad.DType(), l.dx, grad.Shape()...)
	if grad.DType() == tensor.Float32 {
		reluBackward32(grad.Data32(), l.dx.Data32(), l.mask)
	} else {
		reluBackward64(grad.Data(), l.dx.Data(), l.mask)
	}
	return l.dx
}

// Params returns nil: ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// Flatten reshapes (batch, ...) to (batch, features).
type Flatten struct {
	inShape []int
}

// NewFlatten creates a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension. The reshape is in place:
// the upstream layer re-shapes its scratch on its next Forward anyway.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append(l.inShape[:0], x.Shape()...)
	return x.ReshapeInPlace(x.Dim(0), x.Len()/x.Dim(0))
}

// Backward restores the original shape (in place, on the downstream
// layer's gradient scratch).
func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.ReshapeInPlace(l.inShape...)
}

// Params returns nil: Flatten has no parameters.
func (l *Flatten) Params() []*Param { return nil }
