package nn

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// lossOf runs a forward pass and returns the scalar loss for the current
// parameter values. Used to compute numerical gradients.
func lossOf(m *Sequential, x *tensor.Tensor, labels []int) float64 {
	logits := m.Forward(x, true)
	loss, _ := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
	return loss
}

// checkGradients compares analytic parameter gradients against central
// finite differences. BatchNorm's running-statistics update makes the
// forward pass non-idempotent in train mode, so callers with BN layers
// freeze momentum first.
func checkGradients(t *testing.T, m *Sequential, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	logits := m.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
	m.Backward(g)

	const eps = 1e-5
	for pi, p := range m.Params() {
		data, grad := p.Data.Data(), p.Grad.Data()
		// Check a spread of coordinates, not all, to keep tests fast.
		stride := len(data)/7 + 1
		for i := 0; i < len(data); i += stride {
			orig := data[i]
			data[i] = orig + eps
			lp := lossOf(m, x, labels)
			data[i] = orig - eps
			lm := lossOf(m, x, labels)
			data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d (%s) coord %d: analytic %v numeric %v", pi, p.Name, i, grad[i], num)
			}
		}
	}
}

func freezeBN(m *Sequential) {
	for _, l := range m.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			bn.Momentum = 0
		}
	}
}

// inputLen is the number of scalars in one input sample of s.
func inputLen(s ModelSpec) int {
	if s.Kind == KindMLP {
		return s.InputDim
	}
	return s.Channels * s.Height * s.Width
}

func randInput(r *rng.RNG, shape ...int) *tensor.Tensor {
	x := tensor.NewOf(tensor.Float64, shape...)
	d := x.Data()
	for i := range d {
		d[i] = r.Normal()
	}
	return x
}

func TestGradCheckDense(t *testing.T) {
	r := rng.New(1)
	m := NewSequential(NewDenseOf(tensor.Float64, 6, 5, r), NewReLU(), NewDenseOf(tensor.Float64, 5, 3, r))
	x := randInput(r, 4, 6)
	checkGradients(t, m, x, []int{0, 1, 2, 1}, 1e-4)
}

func TestGradCheckConv(t *testing.T) {
	r := rng.New(2)
	m := NewSequential(
		NewConv2DOf(tensor.Float64, 2, 3, 3, 3, 1, 1, r),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDenseOf(tensor.Float64, 3*3*3, 4, r),
	)
	x := randInput(r, 2, 2, 6, 6)
	checkGradients(t, m, x, []int{1, 3}, 1e-4)
}

func TestGradCheckConvStride(t *testing.T) {
	r := rng.New(3)
	m := NewSequential(
		NewConv2DOf(tensor.Float64, 1, 2, 3, 3, 2, 0, r),
		NewFlatten(),
		NewDenseOf(tensor.Float64, 2*3*3, 3, r),
	)
	x := randInput(r, 2, 1, 7, 7)
	checkGradients(t, m, x, []int{0, 2}, 1e-4)
}

func TestGradCheckBatchNorm2D(t *testing.T) {
	r := rng.New(4)
	m := NewSequential(NewDenseOf(tensor.Float64, 5, 6, r), newBatchNorm(tensor.Float64, 6, true), NewReLU(), NewDenseOf(tensor.Float64, 6, 3, r))
	freezeBN(m)
	x := randInput(r, 8, 5)
	checkGradients(t, m, x, []int{0, 1, 2, 0, 1, 2, 0, 1}, 1e-3)
}

func TestGradCheckBatchNorm4D(t *testing.T) {
	r := rng.New(5)
	m := NewSequential(
		NewConv2DOf(tensor.Float64, 1, 3, 3, 3, 1, 1, r),
		newBatchNorm(tensor.Float64, 3, true),
		NewReLU(),
		NewFlatten(),
		NewDenseOf(tensor.Float64, 3*5*5, 2, r),
	)
	freezeBN(m)
	x := randInput(r, 4, 1, 5, 5)
	checkGradients(t, m, x, []int{0, 1, 1, 0}, 1e-3)
}

func TestGradCheckResidual(t *testing.T) {
	r := rng.New(6)
	m := NewSequential(
		NewResidualOf(tensor.Float64, 2, 4, r),
		NewFlatten(),
		NewDenseOf(tensor.Float64, 4*4*4, 3, r),
	)
	// Freeze BN momentum inside the residual block.
	for _, l := range m.Layers {
		if blk, ok := l.(*Residual); ok {
			blk.bn1.Momentum = 0
			blk.bn2.Momentum = 0
			if blk.projBN != nil {
				blk.projBN.Momentum = 0
			}
		}
	}
	x := randInput(r, 3, 2, 4, 4)
	checkGradients(t, m, x, []int{0, 1, 2}, 1e-3)
}

func TestGradCheckPaperCNN(t *testing.T) {
	r := rng.New(7)
	m := Build(ModelSpec{Kind: KindCNN, Channels: 1, Height: 16, Width: 16, Classes: 4}, r)
	x := randInput(r, 2, 1, 16, 16)
	checkGradients(t, m, x, []int{0, 3}, 1e-4)
}

func TestGradCheckPaperMLP(t *testing.T) {
	r := rng.New(8)
	m := Build(ModelSpec{Kind: KindMLP, InputDim: 12, Classes: 2}, r)
	x := randInput(r, 6, 12)
	checkGradients(t, m, x, []int{0, 1, 0, 1, 0, 1}, 1e-4)
}
