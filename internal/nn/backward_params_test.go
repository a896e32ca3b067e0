package nn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// TestBackwardParamsMatchesBackward pins the skipped first-layer input
// gradient: for every zoo model in both dtypes, two identical replicas run
// the same Forward, then one runs Backward and the other BackwardParams;
// every parameter gradient must be bitwise equal. The BackwardParams
// replica's first layer must also hold no input-gradient scratch, which is
// what the skip saves in memory.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	const batch = 6
	for _, kind := range []ModelKind{KindCNN, KindMLP, KindVGG, KindResNet} {
		for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
			t.Run(fmt.Sprintf("%s/%v", kind, dt), func(t *testing.T) {
				spec := ModelSpec{Kind: kind, Channels: 3, Height: 16, Width: 16, InputDim: 40, Classes: 10, DType: dt}
				full, params := Build(spec, rng.New(11)), Build(spec, rng.New(11))
				x, labels := zooBatch(spec, batch)
				loss := SoftmaxCrossEntropy{}
				for step := 0; step < 2; step++ { // the second step reuses warm scratch
					for _, m := range []*Sequential{full, params} {
						logits := m.Forward(spec.ShapeBatch(x), true)
						_, g := loss.LossInto(nil, logits, labels)
						if m == full {
							m.Backward(g)
						} else {
							m.BackwardParams(g)
						}
					}
					want, got := make([]float64, full.ParamCount()), make([]float64, params.ParamCount())
					full.GetGrads(want)
					params.GetGrads(got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d grad %d: BackwardParams %v, Backward %v", step, i, got[i], want[i])
						}
					}
				}
				switch l := params.Layers[0].(type) {
				case *Conv2D:
					if l.dx != nil {
						t.Fatal("first Conv2D allocated input-gradient scratch under BackwardParams")
					}
				case *Dense:
					if l.dx != nil {
						t.Fatal("first Dense allocated input-gradient scratch under BackwardParams")
					}
				default:
					t.Fatalf("first layer %T cannot split its Backward", l)
				}
			})
		}
	}
}

// zooBatch is a batch of standard-normal inputs for spec, labelled
// round-robin.
func zooBatch(spec ModelSpec, batch int) (*tensor.Tensor, []int) {
	x := tensor.NewOf(spec.DType, batch, inputLen(spec))
	r, vals := rng.New(5), make([]float64, x.Len())
	for i := range vals {
		vals[i] = r.Normal()
	}
	x.CopyFromF64(vals)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % spec.Classes
	}
	return x, labels
}

// TestBackwardWritesEveryGrad pins that a backward pass writes every
// parameter gradient rather than adding to it: for every zoo model (the
// VGG and ResNet put BatchNorm and a residual block inside) in both
// dtypes, a replica whose gradients are all NaN runs Forward and then
// Backward or BackwardParams, twice; each time every gradient must be
// bitwise that of a fresh replica after one Forward and Backward on the
// same batch. A gradient that was added to stays NaN.
func TestBackwardWritesEveryGrad(t *testing.T) {
	const batch = 6
	for _, kind := range []ModelKind{KindMLP, KindCNN, KindVGG, KindResNet} {
		for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
			t.Run(fmt.Sprintf("%s/%v", kind, dt), func(t *testing.T) {
				spec := ModelSpec{Kind: kind, Channels: 3, Height: 16, Width: 16, InputDim: 40, Classes: 10, DType: dt}
				x, labels := zooBatch(spec, batch)
				loss := SoftmaxCrossEntropy{}
				grads := func(m *Sequential) []float64 {
					g := make([]float64, m.ParamCount())
					m.GetGrads(g)
					return g
				}
				fresh := Build(spec, rng.New(11))
				_, g := loss.LossInto(nil, fresh.Forward(spec.ShapeBatch(x), true), labels)
				fresh.Backward(g)
				want := grads(fresh)
				for _, split := range []bool{false, true} {
					m := Build(spec, rng.New(11))
					for step := 0; step < 2; step++ { // the second step reuses warm scratch
						for _, p := range m.Params() {
							p.Grad.Fill(math.NaN())
						}
						_, g := loss.LossInto(nil, m.Forward(spec.ShapeBatch(x), true), labels)
						if split {
							m.BackwardParams(g)
						} else {
							m.Backward(g)
						}
						for i, v := range grads(m) {
							if math.Float64bits(v) != math.Float64bits(want[i]) {
								t.Fatalf("BackwardParams=%v step %d grad %d: %v, a fresh replica's %v", split, step, i, v, want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestConvHoldsNoPatchMatrix guards the memory the conv entries save: after
// a CNN Forward plus BackwardParams at batch 256, no Conv2D holds a tensor
// as large as its patch matrix (B·oh·ow × C·kh·kw).
// Every *tensor.Tensor field is checked, so a new one cannot slip past.
func TestConvHoldsNoPatchMatrix(t *testing.T) {
	const batch = 256
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		spec := ModelSpec{Kind: KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10, DType: dt}
		m := Build(spec, rng.New(3))
		x := tensor.NewOf(dt, batch, inputLen(spec))
		x.Fill(0.5)
		labels := make([]int, batch)
		_, g := SoftmaxCrossEntropy{}.LossInto(nil, m.Forward(spec.ShapeBatch(x), true), labels)
		m.BackwardParams(g)
		convs := 0
		for _, l := range m.Layers {
			c, ok := l.(*Conv2D)
			if !ok {
				continue
			}
			convs++
			out := c.out.Shape()
			patch := out[0] * out[2] * out[3] * c.InC * c.KH * c.KW
			v := reflect.ValueOf(c).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if f.Type() != reflect.TypeOf((*tensor.Tensor)(nil)) || f.IsNil() {
					continue
				}
				e := f.Elem()
				if n := max(e.FieldByName("data").Cap(), e.FieldByName("data32").Cap()); n >= patch {
					t.Errorf("%v conv %d: field %s holds %d elements, its patch matrix has %d", dt, convs, v.Type().Field(i).Name, n, patch)
				}
			}
		}
		if convs != 2 {
			t.Fatalf("%v: CNN has %d Conv2D layers, want 2", dt, convs)
		}
	}
}
