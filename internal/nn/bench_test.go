package nn

import (
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// BenchmarkConvForwardBackward measures one forward+backward pass through a
// paper-shaped convolution (the hottest per-batch operation in local
// training). Allocations per op are the headline number: the training loop
// runs this parties*epochs*batches times per experiment.
func BenchmarkConvForwardBackward(b *testing.B) {
	r := rng.New(1)
	conv := NewConv2DOf(tensor.Float64, 3, 16, 5, 5, 1, 2, r)
	x := randInput(r, 16, 3, 16, 16)
	out := conv.Forward(x, true)
	g := randInput(r, out.Shape()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
		conv.Backward(g)
		conv.W.Grad.Zero()
		conv.B.Grad.Zero()
	}
}

// benchActivation returns the CNN's first conv output shape (a batch of
// 32, 6×12×12) filled with seeded normal values, in dtype dt.
func benchActivation(dt tensor.DType) *tensor.Tensor {
	x := randInput(rng.New(3), 32, 6, 12, 12)
	if dt == tensor.Float64 {
		return x
	}
	x32 := tensor.NewOf(dt, x.Shape()...)
	x32.CopyFromF64(x.Data())
	return x32
}

// benchLayerPasses times a parameter-free layer's forward and backward
// passes, in both dtypes, on the activation the CNN's first convolution
// emits. The layers it serves are serial kernels: they take no Compute
// budget, so they run on one worker.
func benchLayerPasses(b *testing.B, newLayer func() Layer) {
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		x, l := benchActivation(dt), newLayer()
		g := clone(l.Forward(x, true))
		l.Backward(g) // grow the backward scratch outside the timed loops
		b.Run(dt.String()+"/forward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Forward(x, true)
			}
		})
		b.Run(dt.String()+"/backward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Backward(g)
			}
		})
	}
}

func BenchmarkReLU(b *testing.B)    { benchLayerPasses(b, func() Layer { return NewReLU() }) }
func BenchmarkMaxPool(b *testing.B) { benchLayerPasses(b, func() Layer { return NewMaxPool2D(2, 2) }) }

// BenchmarkCNNForwardBackward measures a full forward+backward+loss pass
// through the paper's CNN, i.e. one mini-batch of local training minus the
// optimizer step.
func BenchmarkCNNForwardBackward(b *testing.B) {
	r := rng.New(2)
	spec := ModelSpec{Kind: KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10}
	m := Build(spec, r)
	x := randInput(r, 32, 3, 16, 16)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	loss := SoftmaxCrossEntropy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x, true)
		_, g := loss.LossInto(nil, logits, labels)
		m.Backward(g)
	}
}
