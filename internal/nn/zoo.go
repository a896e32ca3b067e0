package nn

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// ModelKind selects one of the benchmark's model architectures.
type ModelKind string

const (
	// KindCNN is the paper's CNN for image datasets: two 5x5 convolutions
	// (6 then 16 channels), each followed by 2x2 max pooling, then fully
	// connected layers of 120 and 84 units with ReLU.
	KindCNN ModelKind = "cnn"
	// KindMLP is the paper's MLP for tabular datasets: hidden layers of
	// 32, 16 and 8 units with ReLU.
	KindMLP ModelKind = "mlp"
	// KindVGG is a scaled-down VGG-style network with batch normalization,
	// standing in for the paper's VGG-9 (appendix E).
	KindVGG ModelKind = "vgg"
	// KindResNet is a scaled-down residual network with batch
	// normalization, standing in for the paper's ResNet-50 (appendix E).
	KindResNet ModelKind = "resnet"
)

// ModelSpec describes a model architecture plus its input geometry, so
// every federated party can build a structurally identical network.
type ModelSpec struct {
	Kind ModelKind
	// Image geometry; used by CNN/VGG/ResNet.
	Channels, Height, Width int
	// Flat input dimension; used by MLP.
	InputDim int
	Classes  int
	// DType selects the compute backend for every layer: parameters,
	// gradients, scratch and optimizer state all share it. The zero value
	// is tensor.Float64; tensor.Float32 trains on the float32 kernel set —
	// twice the SIMD lanes, half the memory traffic (state exchanged with
	// the server stays float64).
	DType tensor.DType
}

// ShapeBatch reshapes a flat (batch, features) tensor into the layout the
// model expects. The reshape happens in place (x is training scratch), so
// the returned tensor is x itself.
func (s ModelSpec) ShapeBatch(x *tensor.Tensor) *tensor.Tensor {
	if s.Kind == KindMLP {
		return x
	}
	return x.ReshapeInPlace(x.Dim(0), s.Channels, s.Height, s.Width)
}

// BuildInference constructs the model for evaluation only: weights start
// at zero for the caller's SetState to fill, and no parameter carries a
// gradient tensor, so a replica costs one state vector. Backward must not
// be called on it.
func BuildInference(s ModelSpec) *Sequential { return Build(s, nil) }

// Build constructs the model described by the spec, drawing initial
// weights from r (nil is BuildInference).
func Build(s ModelSpec, r *rng.RNG) *Sequential {
	switch s.Kind {
	case KindCNN:
		return buildCNN(s, r)
	case KindMLP:
		return buildMLP(s, r)
	case KindVGG:
		return buildVGG(s, r)
	case KindResNet:
		return buildResNet(s, r)
	default:
		panic(fmt.Sprintf("nn: unknown model kind %q", s.Kind))
	}
}

func buildCNN(s ModelSpec, r *rng.RNG) *Sequential {
	// Mirror the paper's LeNet-style CNN at our 16x16 input scale:
	// conv5(->6), pool2, conv5(->16), pool2, FC120, FC84, FC classes.
	h := tensor.ConvOutSize(s.Height, 5, 1, 0)
	w := tensor.ConvOutSize(s.Width, 5, 1, 0)
	h, w = h/2, w/2
	h = tensor.ConvOutSize(h, 5, 1, 0)
	w = tensor.ConvOutSize(w, 5, 1, 0)
	h, w = h/2, w/2
	if h < 1 || w < 1 {
		panic(fmt.Sprintf("nn: input %dx%d too small for the paper CNN", s.Height, s.Width))
	}
	flat := 16 * h * w
	return NewSequential(
		NewConv2DOf(s.DType, s.Channels, 6, 5, 5, 1, 0, r),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2DOf(s.DType, 6, 16, 5, 5, 1, 0, r),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDenseOf(s.DType, flat, 120, r),
		NewReLU(),
		NewDenseOf(s.DType, 120, 84, r),
		NewReLU(),
		NewDenseOf(s.DType, 84, s.Classes, r),
	)
}

func buildMLP(s ModelSpec, r *rng.RNG) *Sequential {
	return NewSequential(
		NewDenseOf(s.DType, s.InputDim, 32, r),
		NewReLU(),
		NewDenseOf(s.DType, 32, 16, r),
		NewReLU(),
		NewDenseOf(s.DType, 16, 8, r),
		NewReLU(),
		NewDenseOf(s.DType, 8, s.Classes, r),
	)
}

func buildVGG(s ModelSpec, r *rng.RNG) *Sequential {
	// Two conv-BN-ReLU stages with pooling, then a dense head. Batch norm
	// placement matches VGG-with-BN so the appendix-E aggregation study is
	// meaningful.
	h, w := s.Height/2/2, s.Width/2/2
	return NewSequential(
		NewConv2DOf(s.DType, s.Channels, 16, 3, 3, 1, 1, r),
		newBatchNorm(s.DType, 16, r != nil),
		NewReLU(),
		NewConv2DOf(s.DType, 16, 16, 3, 3, 1, 1, r),
		newBatchNorm(s.DType, 16, r != nil),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2DOf(s.DType, 16, 32, 3, 3, 1, 1, r),
		newBatchNorm(s.DType, 32, r != nil),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDenseOf(s.DType, 32*h*w, 64, r),
		NewReLU(),
		NewDenseOf(s.DType, 64, s.Classes, r),
	)
}

func buildResNet(s ModelSpec, r *rng.RNG) *Sequential {
	h, w := s.Height/2/2, s.Width/2/2
	return NewSequential(
		NewConv2DOf(s.DType, s.Channels, 8, 3, 3, 1, 1, r),
		newBatchNorm(s.DType, 8, r != nil),
		NewReLU(),
		NewResidualOf(s.DType, 8, 16, r),
		NewMaxPool2D(2, 2),
		NewResidualOf(s.DType, 16, 16, r),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDenseOf(s.DType, 16*h*w, s.Classes, r),
	)
}
