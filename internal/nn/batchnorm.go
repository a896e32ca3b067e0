package nn

import (
	"fmt"
	"math"

	"github.com/niid-bench/niidbench/internal/tensor"
)

// BatchNorm normalizes activations per feature (2-D inputs) or per channel
// (4-D NCHW inputs). Gamma and beta are learnable parameters; the running
// mean and variance are buffers that travel with the model state. In a
// federated round the server averages those buffers along with everything
// else — the very behaviour whose instability the paper studies in its
// model-architecture appendix (Finding 11). Reductions accumulate in
// float64 on both backends, so the float32 path loses no statistics
// precision.
type BatchNorm struct {
	Features int
	Momentum float64 // weight of the batch statistics in the running update
	Eps      float64
	Gamma    *Param
	Beta     *Param
	RunMean  *Buffer
	RunVar   *Buffer
	dt       tensor.DType
	// cached values for the backward pass
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int
	train   bool
	out     *tensor.Tensor // forward scratch
	dx      *tensor.Tensor // backward scratch
}

// newBatchNorm creates a batch-norm layer of the given compute dtype for
// the given feature/channel count with gamma=1, beta=0, running mean 0 and
// running variance 1; grad is false only on an inference replica (see
// newParam).
func newBatchNorm(dt tensor.DType, features int, grad bool) *BatchNorm {
	bn := &BatchNorm{
		Features: features,
		Momentum: 0.1,
		Eps:      1e-5,
		Gamma:    newParam(dt, grad, "bn.gamma", features),
		Beta:     newParam(dt, grad, "bn.beta", features),
		RunMean:  &Buffer{Name: "bn.runMean", Data: tensor.NewOf(dt, features)},
		RunVar:   &Buffer{Name: "bn.runVar", Data: tensor.NewOf(dt, features)},
		dt:       dt,
	}
	bn.Gamma.Data.Fill(1)
	bn.RunVar.Data.Fill(1)
	return bn
}

// geometry returns, for each channel, the stride pattern of x: n is the
// reduction-set size per channel.
func (bn *BatchNorm) geometry(x *tensor.Tensor) (batch, spatial int) {
	switch x.Rank() {
	case 2:
		if x.Dim(1) != bn.Features {
			panic(fmt.Sprintf("nn: BatchNorm features %d, input %v", bn.Features, x.Shape()))
		}
		return x.Dim(0), 1
	case 4:
		if x.Dim(1) != bn.Features {
			panic(fmt.Sprintf("nn: BatchNorm channels %d, input %v", bn.Features, x.Shape()))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		panic(fmt.Sprintf("nn: BatchNorm input rank %d unsupported", x.Rank()))
	}
}

// index of element (b, c, s) in x for our two supported layouts.
func bnIndex(rank, features, spatial, b, c, s int) int {
	if rank == 2 {
		return b*features + c
	}
	return (b*features+c)*spatial + s
}

// bnForward is the dtype-generic forward body: statistics accumulate in
// float64, the normalized activations are written in T.
func bnForward[T tensor.Elem](xd, od, hd, gamma, beta, rMean, rVar []T,
	invStd []float64, features, batch, spatial, rank int, train bool, momentum, eps float64) {
	n := batch * spatial
	for c := 0; c < features; c++ {
		var mean, variance float64
		if train {
			var sum float64
			for b := 0; b < batch; b++ {
				for s := 0; s < spatial; s++ {
					sum += float64(xd[bnIndex(rank, features, spatial, b, c, s)])
				}
			}
			mean = sum / float64(n)
			var sq float64
			for b := 0; b < batch; b++ {
				for s := 0; s < spatial; s++ {
					d := float64(xd[bnIndex(rank, features, spatial, b, c, s)]) - mean
					sq += d * d
				}
			}
			variance = sq / float64(n)
			rMean[c] = T((1-momentum)*float64(rMean[c]) + momentum*mean)
			rVar[c] = T((1-momentum)*float64(rVar[c]) + momentum*variance)
		} else {
			mean, variance = float64(rMean[c]), float64(rVar[c])
		}
		inv := 1 / math.Sqrt(variance+eps)
		invStd[c] = inv
		g, bta := float64(gamma[c]), float64(beta[c])
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				i := bnIndex(rank, features, spatial, b, c, s)
				h := (float64(xd[i]) - mean) * inv
				hd[i] = T(h)
				od[i] = T(g*h + bta)
			}
		}
	}
}

// Forward normalizes x using batch statistics (train) or the running
// statistics (eval).
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, spatial := bn.geometry(x)
	bn.inShape = append(bn.inShape[:0], x.Shape()...)
	bn.train = train
	bn.out = tensor.EnsureOf(bn.dt, bn.out, x.Shape()...)
	bn.xhat = tensor.EnsureOf(bn.dt, bn.xhat, x.Shape()...)
	if cap(bn.invStd) < bn.Features {
		bn.invStd = make([]float64, bn.Features)
	}
	bn.invStd = bn.invStd[:bn.Features]
	rank := x.Rank()
	if bn.dt == tensor.Float32 {
		bnForward(x.Data32(), bn.out.Data32(), bn.xhat.Data32(),
			bn.Gamma.Data.Data32(), bn.Beta.Data.Data32(),
			bn.RunMean.Data.Data32(), bn.RunVar.Data.Data32(),
			bn.invStd, bn.Features, batch, spatial, rank, train, bn.Momentum, bn.Eps)
	} else {
		bnForward(x.Data(), bn.out.Data(), bn.xhat.Data(),
			bn.Gamma.Data.Data(), bn.Beta.Data.Data(),
			bn.RunMean.Data.Data(), bn.RunVar.Data.Data(),
			bn.invStd, bn.Features, batch, spatial, rank, train, bn.Momentum, bn.Eps)
	}
	return bn.out
}

// bnBackward is the dtype-generic backward body (standard batch-norm
// gradient; per-channel reductions in float64).
func bnBackward[T tensor.Elem](gd, od, hd, gamma, dGamma, dBeta []T,
	invStd []float64, features, batch, spatial, rank int, train bool) {
	n := float64(batch * spatial)
	for c := 0; c < features; c++ {
		var sumG, sumGH float64
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				i := bnIndex(rank, features, spatial, b, c, s)
				sumG += float64(gd[i])
				sumGH += float64(gd[i]) * float64(hd[i])
			}
		}
		dGamma[c] = T(sumGH)
		dBeta[c] = T(sumG)
		inv := invStd[c]
		g := float64(gamma[c])
		if !train {
			// Statistics were constants; only the affine path matters.
			for b := 0; b < batch; b++ {
				for s := 0; s < spatial; s++ {
					i := bnIndex(rank, features, spatial, b, c, s)
					od[i] = T(float64(gd[i]) * g * inv)
				}
			}
			continue
		}
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				i := bnIndex(rank, features, spatial, b, c, s)
				od[i] = T(g * inv / n * (n*float64(gd[i]) - sumG - float64(hd[i])*sumGH))
			}
		}
	}
}

// Backward computes gradients for gamma, beta and the input using the
// standard batch-norm backward formula. In eval mode the statistics are
// constants, so the input gradient is simply scaled.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, spatial := bn.geometry(grad)
	rank := grad.Rank()
	bn.dx = tensor.EnsureOf(bn.dt, bn.dx, bn.inShape...)
	if bn.dt == tensor.Float32 {
		bnBackward(grad.Data32(), bn.dx.Data32(), bn.xhat.Data32(),
			bn.Gamma.Data.Data32(), bn.Gamma.Grad.Data32(), bn.Beta.Grad.Data32(),
			bn.invStd, bn.Features, batch, spatial, rank, bn.train)
	} else {
		bnBackward(grad.Data(), bn.dx.Data(), bn.xhat.Data(),
			bn.Gamma.Data.Data(), bn.Gamma.Grad.Data(), bn.Beta.Grad.Data(),
			bn.invStd, bn.Features, batch, spatial, rank, bn.train)
	}
	return bn.dx
}

// Params returns gamma and beta.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Buffers returns the running mean and variance.
func (bn *BatchNorm) Buffers() []*Buffer { return []*Buffer{bn.RunMean, bn.RunVar} }
