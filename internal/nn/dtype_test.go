package nn

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// TestFloat32ModelParity builds the same CNN in both dtypes from the same
// RNG stream, runs one forward/backward/loss on identical data and checks
// logits, loss and state agree to float32 precision. This pins the whole
// layer stack (conv, pool, relu, dense, loss, state round-trip) to the
// float64 reference, on whichever kernel path the host CPU selects.
func TestFloat32ModelParity(t *testing.T) {
	spec64 := ModelSpec{Kind: KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10}
	spec32 := spec64
	spec32.DType = tensor.Float32

	m64 := Build(spec64, rng.New(11))
	m32 := Build(spec32, rng.New(11))
	// Same init stream -> states must match after the float32 narrowing.
	s64 := m64.State()
	s32 := m32.State()
	for i := range s64 {
		if math.Abs(s64[i]-s32[i]) > 1e-6*(1+math.Abs(s64[i])) {
			t.Fatalf("init state diverges at %d: %v vs %v", i, s64[i], s32[i])
		}
	}

	const batch = 8
	x64 := tensor.NewOf(tensor.Float64, batch, 3, 16, 16)
	x32 := tensor.NewOf(tensor.Float32, batch, 3, 16, 16)
	r := rng.New(5)
	xd := x64.Data()
	xs := x32.Data32()
	for i := range xd {
		v := r.Normal()
		xd[i] = v
		xs[i] = float32(v)
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}

	loss := SoftmaxCrossEntropy{}
	logits64 := m64.Forward(x64, true)
	l64, g64 := loss.LossInto(nil, logits64, labels)
	logits32 := m32.Forward(x32, true)
	l32, g32 := loss.LossInto(nil, logits32, labels)

	if logits32.DType() != tensor.Float32 || g32.DType() != tensor.Float32 {
		t.Fatalf("float32 model produced %v logits / %v grad", logits32.DType(), g32.DType())
	}
	ld64, ld32 := logits64.Data(), logits32.Data32()
	for i := range ld64 {
		if math.Abs(ld64[i]-float64(ld32[i])) > 1e-3*(1+math.Abs(ld64[i])) {
			t.Fatalf("logit %d: f64 %v vs f32 %v", i, ld64[i], ld32[i])
		}
	}
	if math.Abs(l64-l32) > 1e-3*(1+math.Abs(l64)) {
		t.Fatalf("loss: f64 %v vs f32 %v", l64, l32)
	}

	m64.Forward(x64, true)
	m32.Forward(x32, true)
	_, g64 = loss.LossInto(nil, logits64, labels)
	_, g32 = loss.LossInto(nil, logits32, labels)
	m64.Backward(g64)
	m32.Backward(g32)
	grads64 := make([]float64, m64.ParamCount())
	grads32 := make([]float64, m32.ParamCount())
	m64.GetGrads(grads64)
	m32.GetGrads(grads32)
	for i := range grads64 {
		if math.Abs(grads64[i]-grads32[i]) > 1e-3*(1+math.Abs(grads64[i])) {
			t.Fatalf("grad %d: f64 %v vs f32 %v", i, grads64[i], grads32[i])
		}
	}
}

// TestFloat32StateRoundTrip checks SetState/GetState narrowing on a
// BN+residual model (buffers included in the state vector).
func TestFloat32StateRoundTrip(t *testing.T) {
	spec := ModelSpec{Kind: KindResNet, Channels: 3, Height: 16, Width: 16, Classes: 10, DType: tensor.Float32}
	m := Build(spec, rng.New(3))
	state := m.State()
	for i := range state {
		state[i] = float64(float32(state[i] * 1.25))
	}
	m.SetState(state)
	got := make([]float64, m.StateCount())
	m.GetState(got)
	for i := range state {
		if state[i] != got[i] {
			t.Fatalf("state %d: wrote %v read %v", i, state[i], got[i])
		}
	}
}
