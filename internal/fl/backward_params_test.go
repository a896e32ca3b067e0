package fl

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// opaqueLayer hides everything but the Layer interface of the layer it
// wraps, so Sequential.BackwardParams cannot split its Backward and falls
// back to the full one: a client whose first layer is wrapped trains
// exactly as it did before the first-layer input gradient was skipped.
type opaqueLayer struct{ nn.Layer }

// TestTrainStreamMatchesFullBackward trains two identical clients for two
// rounds — one as shipped, one with its first layer made opaque so every
// step forms the first layer's input gradient through Backward — and
// requires bitwise-equal updates, for the three kinds of pass through the
// one gradient step (which ends in the body's BackwardParams): plain SGD
// (FedAvg), SCAFFOLD's option-(i) gradient pass and MOON's contrastive
// step. Afterwards the shipped client's first layer must hold no
// input-gradient scratch.
func TestTrainStreamMatchesFullBackward(t *testing.T) {
	ds := benchDataset(64)
	specs := []nn.ModelSpec{
		{Kind: nn.KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10},
		{Kind: nn.KindMLP, InputDim: ds.FeatLen, Classes: 10},
	}
	algs := []Config{
		{Algorithm: FedAvg},
		{Algorithm: Scaffold, Variant: ScaffoldGradient},
		{Algorithm: Moon, MoonMu: 1},
	}
	for _, spec := range specs {
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%s/%s", spec.Kind, alg.Algorithm), func(t *testing.T) {
				cfg := alg
				cfg.LocalEpochs, cfg.BatchSize, cfg.LR, cfg.Momentum = 2, 24, 0.01, 0.9
				cfg, err := cfg.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				train := func(opaque bool) (*Client, []Update) {
					root := rng.New(7)
					c := NewClient(0, ds, spec, root.Split())
					if opaque {
						c.model.Layers[0] = opaqueLayer{c.model.Layers[0]}
					}
					global := nn.Build(spec, root.Split()).State()
					var serverC []float64
					if cfg.Algorithm == Scaffold {
						serverC = make([]float64, c.ParamCount())
					}
					var ups []Update
					for round := 0; round < 2; round++ {
						u := localTrain(c, global, serverC, cfg)
						for i := range global {
							global[i] -= u.Delta[i]
						}
						ups = append(ups, u)
					}
					return c, ups
				}
				shipped, got := train(false)
				reference, want := train(true)
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("round %d: update differs from the full-Backward client's", r)
					}
				}
				// dx is the first layer's input-gradient scratch (unexported,
				// hence reflection): the reference must have formed it, the
				// shipped client must not even have allocated it.
				dx := func(l nn.Layer) reflect.Value { return reflect.ValueOf(l).Elem().FieldByName("dx") }
				if dx(reference.model.Layers[0].(opaqueLayer).Layer).IsNil() {
					t.Fatal("reference client never ran the first layer's full Backward")
				}
				if !dx(shipped.model.Layers[0]).IsNil() {
					t.Fatal("first layer holds input-gradient scratch after training")
				}
			})
		}
	}
}

// localTrain trains one round and copies the update out of the client's
// pooled workspace, for tests that hold updates across rounds.
func localTrain(c *Client, global, serverC []float64, cfg Config) Update {
	p := c.TrainStream(global, serverC, cfg)
	u := p.Update()
	u.Delta = append([]float64{}, u.Delta...)
	if u.DeltaC != nil {
		u.DeltaC = append([]float64{}, u.DeltaC...)
	}
	p.Release()
	return u
}
