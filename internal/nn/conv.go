package nn

import (
	"fmt"
	"math"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, implemented as im2col
// followed by a matrix product. The weight is stored as
// (inC*kh*kw, outC) so the forward pass is a single matmul on the patch
// matrix. All intermediates live in per-layer scratch buffers that are
// reused across Forward/Backward calls, so steady-state training does not
// allocate. The layer's dtype (chosen at construction) selects the kernel
// set: the packed-panel GEMM driver's float32 or float64 microkernels and
// the matching im2col/col2im.
type Conv2D struct {
	InC, OutC     int
	KH, KW        int
	Stride, Pad   int
	W, B          *Param
	dt            tensor.DType
	cmp           tensor.Compute // kernel fan-out budget (zero = all cores)
	cols          *tensor.Tensor // cached im2col of the input
	inB, inH, inW int            // cached input geometry
	outH, outW    int
	// scratch buffers, grown on demand and reused across batches
	prod  *tensor.Tensor // forward matmul result (rows layout)
	out   *tensor.Tensor // forward output (NCHW)
	gcols *tensor.Tensor // backward: gradient in rows layout
	dw    *tensor.Tensor // backward: weight-gradient accumulator
	dcols *tensor.Tensor // backward: column gradient
	dx    *tensor.Tensor // backward: input gradient (NCHW)
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

// SetCompute installs the kernel compute budget for the layer's im2col,
// col2im and matmul kernels.
func (c *Conv2D) SetCompute(cmp tensor.Compute) { c.cmp = cmp }

// Forward computes the convolution of x (batch, inC, H, W). The returned
// tensor is layer-owned scratch, valid until the next Forward call.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input shape %v, want [N %d H W]", x.Shape(), c.InC))
	}
	c.inB, c.inH, c.inW = x.Dim(0), x.Dim(2), x.Dim(3)
	c.outH = tensor.ConvOutSize(c.inH, c.KH, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(c.inW, c.KW, c.Stride, c.Pad)
	rows := c.inB * c.outH * c.outW
	c.cols = tensor.EnsureOf(c.dt, c.cols, rows, c.InC*c.KH*c.KW)
	c.cmp.Im2ColInto(c.cols, x, c.KH, c.KW, c.Stride, c.Pad)
	// (B*oh*ow, inC*kh*kw) @ (inC*kh*kw, outC) -> (B*oh*ow, outC)
	c.prod = tensor.EnsureOf(c.dt, c.prod, rows, c.OutC)
	c.cmp.MatMulInto(c.prod, c.cols, c.W.Data)
	c.prod.AddRowVector(c.B.Data)
	c.out = tensor.EnsureOf(c.dt, c.out, c.inB, c.OutC, c.outH, c.outW)
	rowsToNCHWInto(c.out, c.prod)
	return c.out
}

// Backward accumulates weight/bias gradients and returns the input
// gradient (layer-owned scratch, valid until the next Backward call).
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	// dcols = gcols @ Wᵀ, then scatter back to image shape.
	c.dcols = tensor.EnsureOf(c.dt, c.dcols, c.gcols.Dim(0), c.W.Data.Dim(0))
	c.cmp.MatMulTransBInto(c.dcols, c.gcols, c.W.Data)
	c.dx = tensor.EnsureOf(c.dt, c.dx, c.inB, c.InC, c.inH, c.inW)
	return c.cmp.Col2ImInto(c.dx, c.dcols, c.KH, c.KW, c.Stride, c.Pad)
}

// backwardParams is the parameter half of Backward: dW and db only. It
// leaves the output gradient in rows layout in c.gcols for the input half.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	rows := c.inB * c.outH * c.outW
	c.gcols = tensor.EnsureOf(c.dt, c.gcols, rows, c.OutC) // (B*oh*ow, outC)
	nchwToRowsInto(c.gcols, grad)
	// dW += colsᵀ @ gcols
	c.dw = tensor.EnsureOf(c.dt, c.dw, c.W.Data.Dim(0), c.W.Data.Dim(1))
	c.cmp.MatMulTransAInto(c.dw, c.cols, c.gcols)
	tensor.AddInto(c.W.Grad, c.W.Grad, c.dw)
	// db += column sums
	c.gcols.ColSumsInto(c.B.Grad)
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

func rowsToNCHW[T tensor.Elem](od, rd []T, b, c, h, w int) {
	for bi := 0; bi < b; bi++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				row := ((bi*h+y)*w + x) * c
				for ci := 0; ci < c; ci++ {
					od[((bi*c+ci)*h+y)*w+x] = rd[row+ci]
				}
			}
		}
	}
}

// rowsToNCHWInto rearranges a (B*H*W, C) row matrix into the NCHW tensor
// out; every element of out is written.
func rowsToNCHWInto(out, rows *tensor.Tensor) {
	b, c, h, w := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
	if out.DType() == tensor.Float32 {
		rowsToNCHW(out.Data32(), rows.Data32(), b, c, h, w)
		return
	}
	rowsToNCHW(out.Data(), rows.Data(), b, c, h, w)
}

func nchwToRows[T tensor.Elem](od, xd []T, b, c, h, w int) {
	for bi := 0; bi < b; bi++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				row := ((bi*h+y)*w + xx) * c
				for ci := 0; ci < c; ci++ {
					od[row+ci] = xd[((bi*c+ci)*h+y)*w+xx]
				}
			}
		}
	}
}

// nchwToRowsInto is the inverse of rowsToNCHWInto: it writes the (B*H*W, C)
// row layout of the NCHW tensor x into out.
func nchwToRowsInto(out, x *tensor.Tensor) {
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if x.DType() == tensor.Float32 {
		nchwToRows(out.Data32(), x.Data32(), b, c, h, w)
		return
	}
	nchwToRows(out.Data(), x.Data(), b, c, h, w)
}

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
