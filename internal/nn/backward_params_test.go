package nn

import (
	"fmt"
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
				x := tensor.NewOf(dt, batch, inputLen(spec))
				r, vals := rng.New(5), make([]float64, x.Len())
				for i := range vals {
					vals[i] = r.Normal()
				}
				x.CopyFromF64(vals)
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = i % spec.Classes
				}
				loss := SoftmaxCrossEntropy{}
				for step := 0; step < 2; step++ { // the second step reuses warm scratch
					for _, m := range []*Sequential{full, params} {
						m.ZeroGrads()
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
					if l.dcols != nil || l.dx != nil {
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
