package optim

import (
	"fmt"
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// oneParamModel builds a model of the given dtype with a single dense
// layer whose weights and gradients we can set directly.
func oneParamModel(dt tensor.DType, w []float64) *nn.Sequential {
	r := rng.New(1)
	d := nn.NewDenseOf(dt, len(w), 1, r)
	d.W.Data.CopyFromF64(w)
	d.B.Data.Zero()
	return nn.NewSequential(d)
}

// weights returns the model's first parameter widened to float64.
func weights(m *nn.Sequential) []float64 {
	p := m.Params()[0].Data
	w := make([]float64, p.Len())
	p.CopyToF64(w)
	return w
}

func setGrads(m *nn.Sequential, g float64) {
	for _, p := range m.Params() {
		p.Grad.Fill(g)
	}
}

// forEachDType runs f as a subtest per compute dtype with the tolerance
// that dtype's arithmetic meets.
func forEachDType(t *testing.T, f func(t *testing.T, dt tensor.DType, tol float64)) {
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		tol := 1e-9
		if dt == tensor.Float32 {
			tol = 1e-6
		}
		t.Run(fmt.Sprint(dt), func(t *testing.T) { f(t, dt, tol) })
	}
}

func TestVanillaSGDStep(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, _ float64) {
		m := oneParamModel(dt, []float64{1, 2})
		o := NewSGD(0.5, 0)
		setGrads(m, 1)
		o.Step(m)
		if w := weights(m); w[0] != 0.5 || w[1] != 1.5 {
			t.Fatalf("sgd step: %v", w)
		}
	})
}

func TestMomentumAccumulates(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, tol float64) {
		m := oneParamModel(dt, []float64{0})
		o := NewSGD(1, 0.9)
		// Constant gradient 1: updates should be 1, 1.9, 2.71, ...
		for _, want := range []float64{1, 1.9, 2.71} {
			before := weights(m)[0]
			setGrads(m, 1)
			o.Step(m)
			if step := before - weights(m)[0]; math.Abs(step-want) > tol {
				t.Fatalf("momentum step: got %v want %v", step, want)
			}
		}
	})
}

func TestResetClearsMomentum(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, tol float64) {
		m := oneParamModel(dt, []float64{0})
		o := NewSGD(1, 0.9)
		setGrads(m, 1)
		o.Step(m)
		o.Reset()
		setGrads(m, 1)
		before := weights(m)[0]
		o.Step(m)
		if step := before - weights(m)[0]; math.Abs(step-1) > tol {
			t.Fatalf("after Reset first step should be lr*g=1, got %v", step)
		}
	})
}

func TestProximalCorrector(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, tol float64) {
		m := oneParamModel(dt, []float64{3, 3})
		global := []float64{1, 5, 0} // includes bias slot (last)
		o := NewSGD(1, 0)
		o.Corrector = &Proximal{Mu: 2, Global: global}
		setGrads(m, 0)
		o.Step(m)
		// g0 = 2*(3-1)=4 -> w0 = -1 ; g1 = 2*(3-5)=-4 -> w1 = 7
		if w := weights(m); math.Abs(w[0]+1) > tol || math.Abs(w[1]-7) > tol {
			t.Fatalf("proximal: %v", w)
		}
	})
}

func TestProximalZeroAtGlobal(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, _ float64) {
		// At w == w_global the proximal term must vanish.
		m := oneParamModel(dt, []float64{1, 2})
		global := m.State()
		o := NewSGD(1, 0)
		o.Corrector = &Proximal{Mu: 10, Global: global}
		setGrads(m, 0)
		o.Step(m)
		if w := weights(m); w[0] != 1 || w[1] != 2 {
			t.Fatalf("proximal moved weights at the global point: %v", w)
		}
	})
}

func TestScaffoldCorrector(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, tol float64) {
		m := oneParamModel(dt, []float64{0, 0})
		local := []float64{1, 2, 0} // two weights + bias
		server := []float64{4, 1, 0}
		o := NewSGD(1, 0)
		o.Corrector = &Scaffold{Local: local, Server: server}
		setGrads(m, 0)
		o.Step(m)
		// g = 0 - c_i + c -> w = -(c - c_i) = c_i - c
		if w := weights(m); math.Abs(w[0]-(-3)) > tol || math.Abs(w[1]-1) > tol {
			t.Fatalf("scaffold: %v", w)
		}
	})
}

func TestScaffoldNoopWhenEqual(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, _ float64) {
		m := oneParamModel(dt, []float64{5})
		cv := []float64{2, 2}
		o := NewSGD(1, 0)
		o.Corrector = &Scaffold{Local: cv, Server: cv}
		setGrads(m, 0)
		o.Step(m)
		if w := weights(m)[0]; w != 5 {
			t.Fatalf("equal control variates must not move weights: %v", w)
		}
	})
}

func TestCorrectorOffsets(t *testing.T) {
	forEachDType(t, func(t *testing.T, dt tensor.DType, _ float64) {
		// Two-layer model: corrector offsets must advance across
		// parameters. From w = 0 with zero gradients, lr = mu = 1 lands
		// every scalar on its own Global entry, which is distinct per
		// scalar, so a misplaced offset shows as a wrong value.
		r := rng.New(2)
		m := nn.NewSequential(nn.NewDenseOf(dt, 2, 2, r), nn.NewDenseOf(dt, 2, 1, r))
		total := m.ParamCount()
		m.SetState(make([]float64, total))
		global := make([]float64, total)
		for i := range global {
			global[i] = float64(i + 1)
		}
		o := NewSGD(1, 0)
		o.Corrector = &Proximal{Mu: 1, Global: global}
		setGrads(m, 0)
		o.Step(m)
		got := m.State()
		for i, g := range global {
			if got[i] != g {
				t.Fatalf("scalar %d = %v, want its own Global entry %v (state %v)", i, got[i], g, got)
			}
		}
	})
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
