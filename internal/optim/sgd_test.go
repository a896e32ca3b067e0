package optim

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// oneParamModel builds a model with a single dense layer whose weights and
// gradients we can set directly.
func oneParamModel(w []float64) *nn.Sequential {
	r := rng.New(1)
	d := nn.NewDenseOf(tensor.Float64, len(w), 1, r)
	copy(d.W.Data.Data(), w)
	d.B.Data.Zero()
	return nn.NewSequential(d)
}

func setGrads(m *nn.Sequential, g float64) {
	for _, p := range m.Params() {
		p.Grad.Fill(g)
	}
}

func TestVanillaSGDStep(t *testing.T) {
	m := oneParamModel([]float64{1, 2})
	o := NewSGD(0.5, 0)
	setGrads(m, 1)
	o.Step(m)
	w := m.Params()[0].Data.Data()
	if w[0] != 0.5 || w[1] != 1.5 {
		t.Fatalf("sgd step: %v", w)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	m := oneParamModel([]float64{0})
	o := NewSGD(1, 0.9)
	// Constant gradient 1: updates should be 1, 1.9, 2.71, ...
	wantSteps := []float64{1, 1.9, 2.71}
	prev := 0.0
	for _, want := range wantSteps {
		before := m.Params()[0].Data.Data()[0]
		setGrads(m, 1)
		o.Step(m)
		after := m.Params()[0].Data.Data()[0]
		step := before - after
		if math.Abs(step-want) > 1e-9 {
			t.Fatalf("momentum step: got %v want %v (prev %v)", step, want, prev)
		}
		prev = step
	}
}

func TestResetClearsMomentum(t *testing.T) {
	m := oneParamModel([]float64{0})
	o := NewSGD(1, 0.9)
	setGrads(m, 1)
	o.Step(m)
	o.Reset()
	setGrads(m, 1)
	before := m.Params()[0].Data.Data()[0]
	o.Step(m)
	after := m.Params()[0].Data.Data()[0]
	if math.Abs((before-after)-1) > 1e-9 {
		t.Fatalf("after Reset first step should be lr*g=1, got %v", before-after)
	}
}

func TestWeightDecay(t *testing.T) {
	m := oneParamModel([]float64{2})
	o := NewSGD(1, 0)
	o.WeightDecay = 0.5
	setGrads(m, 0)
	o.Step(m)
	// g = 0 + 0.5*2 = 1, w = 2 - 1 = 1.
	if got := m.Params()[0].Data.Data()[0]; math.Abs(got-1) > 1e-9 {
		t.Fatalf("weight decay: got %v want 1", got)
	}
}

func TestProximalCorrector(t *testing.T) {
	m := oneParamModel([]float64{3, 3})
	global := []float64{1, 5, 0} // includes bias slot (last)
	o := NewSGD(1, 0)
	o.AddCorrector(&Proximal{Mu: 2, Global: global})
	setGrads(m, 0)
	o.Step(m)
	w := m.Params()[0].Data.Data()
	// g0 = 2*(3-1)=4 -> w0 = -1 ; g1 = 2*(3-5)=-4 -> w1 = 7
	if math.Abs(w[0]+1) > 1e-9 || math.Abs(w[1]-7) > 1e-9 {
		t.Fatalf("proximal: %v", w)
	}
}

func TestProximalZeroAtGlobal(t *testing.T) {
	// At w == w_global the proximal term must vanish.
	m := oneParamModel([]float64{1, 2})
	global := append([]float64{}, m.Params()[0].Data.Data()...)
	global = append(global, m.Params()[1].Data.Data()...)
	o := NewSGD(1, 0)
	o.AddCorrector(&Proximal{Mu: 10, Global: global})
	setGrads(m, 0)
	o.Step(m)
	if w := m.Params()[0].Data.Data(); w[0] != 1 || w[1] != 2 {
		t.Fatalf("proximal moved weights at the global point: %v", w)
	}
}

func TestScaffoldCorrector(t *testing.T) {
	m := oneParamModel([]float64{0, 0})
	n := 3 // two weights + bias
	local := []float64{1, 2, 0}
	server := []float64{4, 1, 0}
	o := NewSGD(1, 0)
	o.AddCorrector(&Scaffold{Local: local, Server: server})
	setGrads(m, 0)
	o.Step(m)
	w := m.Params()[0].Data.Data()
	// g = 0 - c_i + c -> w = -(c - c_i) = c_i - c
	if math.Abs(w[0]-(-3)) > 1e-9 || math.Abs(w[1]-1) > 1e-9 {
		t.Fatalf("scaffold: %v (n=%d)", w, n)
	}
}

func TestScaffoldNoopWhenEqual(t *testing.T) {
	m := oneParamModel([]float64{5})
	cv := []float64{2, 2}
	o := NewSGD(1, 0)
	o.AddCorrector(&Scaffold{Local: cv, Server: cv})
	setGrads(m, 0)
	o.Step(m)
	if w := m.Params()[0].Data.Data()[0]; w != 5 {
		t.Fatalf("equal control variates must not move weights: %v", w)
	}
}

func TestCorrectorOffsets(t *testing.T) {
	// Two-layer model: corrector offsets must advance across parameters.
	r := rng.New(2)
	m := nn.NewSequential(nn.NewDenseOf(tensor.Float64, 2, 2, r), nn.NewDenseOf(tensor.Float64, 2, 1, r))
	total := m.ParamCount()
	seen := make([]bool, total)
	o := NewSGD(1, 0)
	o.AddCorrector(correctorFunc(func(g, w []float64, off int) {
		for j := range g {
			if seen[off+j] {
				panic("offset visited twice")
			}
			seen[off+j] = true
		}
	}))
	o.Step(m)
	for i, s := range seen {
		if !s {
			t.Fatalf("offset %d never visited", i)
		}
	}
}

type correctorFunc func(g, w []float64, off int)

func (f correctorFunc) Correct(g, w []float64, off int) { f(g, w, off) }

func (f correctorFunc) Correct32(g, w []float32, off int) {
	panic("correctorFunc: unexpected float32 path in a float64 test")
}

func TestSGDTrainsQuadratic(t *testing.T) {
	// Minimize ||xW - y||-ish via the model's own loss machinery: check the
	// optimizer actually descends on a real model.
	r := rng.New(3)
	m := nn.NewSequential(nn.NewDenseOf(tensor.Float64, 4, 2, r))
	o := NewSGD(0.1, 0.9)
	x := tensor.NewOf(tensor.Float64, 8, 4)
	for i := range x.Data() {
		x.Data()[i] = r.Normal()
	}
	labels := make([]int, 8)
	for i := range labels {
		if x.Data()[i*4] > 0 {
			labels[i] = 1
		}
	}
	var first, last float64
	for step := 0; step < 50; step++ {
		logits := m.Forward(x, true)
		loss, g := nn.SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
		m.Backward(g)
		o.Step(m)
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("SGD failed to descend: %v -> %v", first, last)
	}
}

func TestNewSGDPanicsOnBadLR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lr<=0")
		}
	}()
	NewSGD(0, 0.9)
}
