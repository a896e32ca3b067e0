package nn

import (
	"fmt"
	"math"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs. The weight is stored as
// (inC*kh*kw, outC), one row per patch element (ci, ky, kx), and every
// pass runs on the GEMM driver's convolution entries (tensor.ConvInto and
// its two gradients), which re-derive the patches from the image block by
// block: no pass materializes a patch matrix. The forward output and the
// input gradient live in per-layer scratch buffers that are reused across
// Forward/Backward calls, and the weight gradient is written straight into
// W.Grad, so steady-state training does not allocate. The layer's dtype
// (chosen at construction) selects the float32 or float64 kernel set.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W, B        *Param
	dt          tensor.DType
	cmp         tensor.Compute // kernel fan-out budget (zero = all cores)
	in          *tensor.Tensor // cached input for the backward pass
	// scratch buffers, grown on demand and reused across batches
	out *tensor.Tensor // forward output (NCHW)
	dx  *tensor.Tensor // backward: input gradient (NCHW)
}

// NewConv2DOf creates a convolution layer of the given compute dtype with
// He-uniform initialization.
func NewConv2DOf(dt tensor.DType, inC, outC, kh, kw, stride, pad int, r *rng.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W:  newParam(dt, r != nil, "conv.W", inC*kh*kw, outC),
		B:  newParam(dt, r != nil, "conv.b", outC),
		dt: dt,
	}
	initHeUniform(c.W.Data, inC*kh*kw, r)
	return c
}

// SetCompute installs the kernel compute budget for the layer's
// convolution kernels: each fans out over output pixels or images, and
// its result does not depend on the budget.
func (c *Conv2D) SetCompute(cmp tensor.Compute) { c.cmp = cmp }

// Forward computes the convolution of x (batch, inC, H, W). The returned
// tensor is layer-owned scratch, valid until the next Forward call; x
// must stay unchanged until Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want [N %d H W]", x.Shape(), c.InC))
	}
	c.in = x
	outH := tensor.ConvOutSize(x.Dim(2), c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(x.Dim(3), c.KW, c.Stride, c.Pad)
	c.out = tensor.EnsureOf(c.dt, c.out, x.Dim(0), c.OutC, outH, outW)
	return c.cmp.ConvInto(c.out, x, c.W.Data, c.B.Data, c.KH, c.KW, c.Stride, c.Pad)
}

// Backward writes the weight/bias gradients and returns the input
// gradient (layer-owned scratch, valid until the next Backward call).
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	c.dx = tensor.EnsureOf(c.dt, c.dx, c.in.Dim(0), c.InC, c.in.Dim(2), c.in.Dim(3))
	return c.cmp.ConvInputGradInto(c.dx, grad, c.W.Data, c.KH, c.KW, c.Stride, c.Pad)
}

// backwardParams is the parameter half of Backward: dW and db only, read
// from the cached input and the NCHW output gradient.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	c.cmp.ConvWeightGradInto(c.W.Grad, c.in, grad, c.KH, c.KW, c.Stride, c.Pad)
	b, hw := grad.Dim(0), grad.Dim(2)*grad.Dim(3)
	if c.dt == tensor.Float32 {
		channelSums(c.B.Grad.Data32(), grad.Data32(), b, hw)
	} else {
		channelSums(c.B.Grad.Data(), grad.Data(), b, hw)
	}
}

// channelSums writes each channel's sum over the NCHW tensor gd (b images
// of hw-element planes) into db, adding pixel by pixel in (image, pixel)
// order — the order a column sum of the (pixels, channels) matrix adds
// them in.
func channelSums[T tensor.Elem](db, gd []T, b, hw int) {
	oc := len(db)
	for o := range db {
		var s T
		for bi := 0; bi < b; bi++ {
			for _, v := range gd[(bi*oc+o)*hw:][:hw] {
				s += v
			}
		}
		db[o] = s
	}
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool2D is a max pooling layer over NCHW inputs. Dtype-agnostic: the
// scratch follows the input.
type MaxPool2D struct {
	K, Stride  int
	argmax     []int
	offs       []int // window offsets from the window's origin, in scan order
	inShape    [4]int
	outH, outW int
	out        *tensor.Tensor // forward scratch
	dx         *tensor.Tensor // backward scratch
}

// NewMaxPool2D creates a pooling layer with a square window.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{K: k, Stride: stride}
}

// The max-pool kernels handle every K and stride with no data-dependent
// branch. They visit the outputs in order, moving the window's origin top
// along with them, and scan each window through offs. The running best is
// held as bits and the argmax as an index, both updated by conditional
// moves (as in the ReLU kernels, Go emits those only for integer-shaped
// values). The (ky, kx) scan order and the strict > keep the first of
// tied elements, NaN never wins, and a window with nothing above -Inf
// yields (-Inf, -1). Forward guarantees every window is inside its plane.

func maxPoolForward64(xd, od []float64, argmax, offs []int, h, w, outH, outW, stride int) {
	argmax = argmax[:len(od)]
	top, ox, oy := 0, 0, 0
	for oi := range od {
		best, arg := math.Float64bits(math.Inf(-1)), -1
		for _, off := range offs {
			at := top + off
			v := xd[at]
			bits := math.Float64bits(v)
			if v > math.Float64frombits(best) {
				best, arg = bits, at
			}
		}
		od[oi], argmax[oi] = math.Float64frombits(best), arg
		top += stride
		if ox++; ox == outW { // next output row, and past the last row the next plane
			ox, top = 0, top-outW*stride+stride*w
			if oy++; oy == outH {
				oy, top = 0, top-outH*stride*w+h*w
			}
		}
	}
}

func maxPoolForward32(xd, od []float32, argmax, offs []int, h, w, outH, outW, stride int) {
	argmax = argmax[:len(od)]
	top, ox, oy := 0, 0, 0
	for oi := range od {
		best, arg := math.Float32bits(float32(math.Inf(-1))), -1
		for _, off := range offs {
			at := top + off
			v := xd[at]
			bits := math.Float32bits(v)
			if v > math.Float32frombits(best) {
				best, arg = bits, at
			}
		}
		od[oi], argmax[oi] = math.Float32frombits(best), arg
		top += stride
		if ox++; ox == outW {
			ox, top = 0, top-outW*stride+stride*w
			if oy++; oy == outH {
				oy, top = 0, top-outH*stride*w+h*w
			}
		}
	}
}

// Forward computes the max over each window and records the argmax for the
// backward pass.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input shape %v, want 4-D", x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if p.K > h || p.K > w {
		// ConvOutSize truncates toward zero, so it would report one
		// partial window rather than none.
		panic(fmt.Sprintf("nn: MaxPool2D kernel %dx%d too large for input %dx%d", p.K, p.K, h, w))
	}
	p.inShape = [4]int{b, c, h, w}
	p.outH = tensor.ConvOutSize(h, p.K, p.Stride, 0)
	p.outW = tensor.ConvOutSize(w, p.K, p.Stride, 0)
	p.out = tensor.EnsureOf(x.DType(), p.out, b, c, p.outH, p.outW)
	out := p.out
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]
	p.offs = p.offs[:0]
	for ky := 0; ky < p.K; ky++ {
		for kx := 0; kx < p.K; kx++ {
			p.offs = append(p.offs, ky*w+kx)
		}
	}
	if x.DType() == tensor.Float32 {
		maxPoolForward32(x.Data32(), out.Data32(), p.argmax, p.offs, h, w, p.outH, p.outW, p.Stride)
	} else {
		maxPoolForward64(x.Data(), out.Data(), p.argmax, p.offs, h, w, p.outH, p.outW, p.Stride)
	}
	return out
}

func maxPoolBackward[T tensor.Elem](od, gd []T, argmax []int) {
	for i, idx := range argmax {
		od[idx] += gd[i]
	}
}

// Backward routes each output gradient to the input position that won the
// max.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.EnsureOf(grad.DType(), p.dx, p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3])
	p.dx.Zero()
	if grad.DType() == tensor.Float32 {
		maxPoolBackward(p.dx.Data32(), grad.Data32(), p.argmax)
	} else {
		maxPoolBackward(p.dx.Data(), grad.Data(), p.argmax)
	}
	return p.dx
}

// Params returns nil: pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }
