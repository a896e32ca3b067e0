package nn

import (
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Residual is a basic ResNet block: conv3x3 -> BN -> ReLU -> conv3x3 -> BN
// plus an identity (or 1x1-conv projection) skip connection, followed by a
// final ReLU. It is the building block of the MiniResNet used for the
// paper's model-architecture appendix.
type Residual struct {
	conv1 *Conv2D
	bn1   *BatchNorm
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm
	// proj is non-nil when the channel count changes across the block.
	proj    *Conv2D
	projBN  *BatchNorm
	reluOut *ReLU
	skipIn  *tensor.Tensor
	sum     *tensor.Tensor // forward scratch: main path + skip
	gsum    *tensor.Tensor // backward scratch: main grad + skip grad
}

// NewResidualOf creates a residual block mapping inC channels to outC
// channels at the same spatial resolution, with dt the compute dtype of
// every layer in the block.
func NewResidualOf(dt tensor.DType, inC, outC int, r *rng.RNG) *Residual {
	blk := &Residual{
		conv1:   NewConv2DOf(dt, inC, outC, 3, 3, 1, 1, r),
		bn1:     newBatchNorm(dt, outC, r != nil),
		relu1:   NewReLU(),
		conv2:   NewConv2DOf(dt, outC, outC, 3, 3, 1, 1, r),
		bn2:     newBatchNorm(dt, outC, r != nil),
		reluOut: NewReLU(),
	}
	if inC != outC {
		blk.proj = NewConv2DOf(dt, inC, outC, 1, 1, 1, 0, r)
		blk.projBN = newBatchNorm(dt, outC, r != nil)
	}
	return blk
}

// SetCompute forwards the kernel compute budget to the block's
// convolutions.
func (b *Residual) SetCompute(c tensor.Compute) {
	b.conv1.SetCompute(c)
	b.conv2.SetCompute(c)
	if b.proj != nil {
		b.proj.SetCompute(c)
	}
}

// Forward runs the main path and adds the skip connection.
func (b *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.skipIn = x
	h := b.conv1.Forward(x, train)
	h = b.bn1.Forward(h, train)
	h = b.relu1.Forward(h, train)
	h = b.conv2.Forward(h, train)
	h = b.bn2.Forward(h, train)
	skip := x
	if b.proj != nil {
		skip = b.proj.Forward(x, train)
		skip = b.projBN.Forward(skip, train)
	}
	b.sum = tensor.EnsureOf(h.DType(), b.sum, h.Shape()...)
	tensor.AddInto(b.sum, h, skip)
	return b.reluOut.Forward(b.sum, train)
}

// Backward splits the gradient between the main path and the skip path and
// sums the input gradients.
func (b *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.reluOut.Backward(grad)
	// Main path.
	gm := b.bn2.Backward(g)
	gm = b.conv2.Backward(gm)
	gm = b.relu1.Backward(gm)
	gm = b.bn1.Backward(gm)
	gm = b.conv1.Backward(gm)
	// Skip path.
	gs := g
	if b.proj != nil {
		gs = b.projBN.Backward(g)
		gs = b.proj.Backward(gs)
	}
	b.gsum = tensor.EnsureOf(gm.DType(), b.gsum, gm.Shape()...)
	tensor.AddInto(b.gsum, gm, gs)
	return b.gsum
}

// Params returns all learnable parameters of the block.
func (b *Residual) Params() []*Param {
	ps := append([]*Param{}, b.conv1.Params()...)
	ps = append(ps, b.bn1.Params()...)
	ps = append(ps, b.conv2.Params()...)
	ps = append(ps, b.bn2.Params()...)
	if b.proj != nil {
		ps = append(ps, b.proj.Params()...)
		ps = append(ps, b.projBN.Params()...)
	}
	return ps
}

// Buffers returns the batch-norm buffers of the block.
func (b *Residual) Buffers() []*Buffer {
	bs := append([]*Buffer{}, b.bn1.Buffers()...)
	bs = append(bs, b.bn2.Buffers()...)
	if b.projBN != nil {
		bs = append(bs, b.projBN.Buffers()...)
	}
	return bs
}
