// Package optim implements the optimizers used by NIID-Bench. The paper
// trains every algorithm with SGD plus momentum; FedProx and SCAFFOLD
// modify the per-step gradient, which this package expresses as gradient
// correctors applied before the momentum update.
//
// The optimizer follows the model's compute dtype: float32 parameters get
// float32 velocity buffers and a float32 update loop, while the
// correctors' own state (control variates, the global model) stays
// []float64 — it comes from the server-side aggregation, which is always
// full precision.
package optim

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Corrector adjusts the raw mini-batch gradient of each parameter before
// the SGD update. offset is the position of this parameter's first scalar
// in the flat parameter vector, so correctors holding flat state (control
// variates, the global model) can index it. Correct32 is the float32-model
// counterpart; implementations keep their internal state in float64 and
// narrow per element.
type Corrector interface {
	Correct(grad []float64, param []float64, offset int)
	Correct32(grad []float32, param []float32, offset int)
}

// SGD is stochastic gradient descent with classical momentum:
//
//	v <- momentum*v + g
//	w <- w - lr*v
//
// matching the paper's optimizer (lr 0.01/0.1, momentum 0.9).
type SGD struct {
	LR       float64
	Momentum float64
	// WeightDecay adds decay*w to the gradient (L2 regularization).
	WeightDecay float64
	velocity    [][]float64
	velocity32  [][]float32
	correctors  []Corrector
}

// NewSGD creates an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: non-positive learning rate %v", lr))
	}
	return &SGD{LR: lr, Momentum: momentum}
}

// AddCorrector registers a gradient corrector (FedProx proximal term,
// SCAFFOLD control variates). Correctors run in registration order.
func (o *SGD) AddCorrector(c Corrector) { o.correctors = append(o.correctors, c) }

// ClearCorrectors removes all registered correctors. Together with Reset
// it lets a persistent optimizer be reused across federated rounds (each
// round re-registers correctors bound to that round's global model)
// instead of being reallocated.
func (o *SGD) ClearCorrectors() {
	for i := range o.correctors {
		o.correctors[i] = nil
	}
	o.correctors = o.correctors[:0]
}

// Step applies one SGD update to every parameter of the model using the
// gradients its last backward pass wrote.
func (o *SGD) Step(m *nn.Sequential) {
	params := m.Params()
	if o.velocity == nil && o.velocity32 == nil {
		o.velocity = make([][]float64, len(params))
		o.velocity32 = make([][]float32, len(params))
		for i, p := range params {
			if p.Data.DType() == tensor.Float32 {
				o.velocity32[i] = make([]float32, p.Data.Len())
			} else {
				o.velocity[i] = make([]float64, p.Data.Len())
			}
		}
	}
	if len(o.velocity) != len(params) {
		panic("optim: model parameter structure changed between steps")
	}
	offset := 0
	for i, p := range params {
		if p.Data.DType() == tensor.Float32 {
			o.step32(p, o.velocity32[i], offset)
		} else {
			o.step64(p, o.velocity[i], offset)
		}
		offset += p.Data.Len()
	}
}

func (o *SGD) step64(p *nn.Param, v []float64, offset int) {
	w, g := p.Data.Data(), p.Grad.Data()
	if o.WeightDecay != 0 {
		for j := range g {
			g[j] += o.WeightDecay * w[j]
		}
	}
	for _, c := range o.correctors {
		c.Correct(g, w, offset)
	}
	if o.Momentum != 0 {
		for j := range w {
			v[j] = o.Momentum*v[j] + g[j]
			w[j] -= o.LR * v[j]
		}
	} else {
		for j := range w {
			w[j] -= o.LR * g[j]
		}
	}
}

func (o *SGD) step32(p *nn.Param, v []float32, offset int) {
	w, g := p.Data.Data32(), p.Grad.Data32()
	if o.WeightDecay != 0 {
		wd := float32(o.WeightDecay)
		for j := range g {
			g[j] += wd * w[j]
		}
	}
	for _, c := range o.correctors {
		c.Correct32(g, w, offset)
	}
	if o.Momentum != 0 {
		mom, lr := float32(o.Momentum), float32(o.LR)
		for j := range w {
			v[j] = mom*v[j] + g[j]
			w[j] -= lr * v[j]
		}
	} else {
		lr := float32(o.LR)
		for j := range w {
			w[j] -= lr * g[j]
		}
	}
}

// Reset clears the momentum buffers, as happens at the start of each
// federated round when a party receives a fresh global model.
func (o *SGD) Reset() {
	for _, v := range o.velocity {
		for j := range v {
			v[j] = 0
		}
	}
	for _, v := range o.velocity32 {
		for j := range v {
			v[j] = 0
		}
	}
}

// Proximal implements FedProx's gradient modification: the local objective
// gains (mu/2)*||w - w_global||^2, i.e. the gradient gains mu*(w - w_global).
// Global is the flat *parameter* vector of the round's global model.
type Proximal struct {
	Mu     float64
	Global []float64
}

// Correct adds mu*(w - w_global) to the gradient.
func (p *Proximal) Correct(grad []float64, param []float64, offset int) {
	g := p.Global[offset : offset+len(param)]
	for j := range grad {
		grad[j] += p.Mu * (param[j] - g[j])
	}
}

// Correct32 is Correct for float32 models; the global model stays float64.
func (p *Proximal) Correct32(grad []float32, param []float32, offset int) {
	g := p.Global[offset : offset+len(param)]
	mu := float32(p.Mu)
	for j := range grad {
		grad[j] += mu * (param[j] - float32(g[j]))
	}
}

// Scaffold implements SCAFFOLD's gradient correction: g <- g - c_i + c,
// where c_i is the party's control variate and c the server's.
type Scaffold struct {
	// Local and Server are flat parameter-length control variates.
	Local, Server []float64
}

// Correct applies the control-variate drift correction.
func (s *Scaffold) Correct(grad []float64, param []float64, offset int) {
	cl := s.Local[offset : offset+len(grad)]
	cs := s.Server[offset : offset+len(grad)]
	for j := range grad {
		grad[j] += cs[j] - cl[j]
	}
}

// Correct32 applies the drift correction to a float32 gradient.
func (s *Scaffold) Correct32(grad []float32, param []float32, offset int) {
	cl := s.Local[offset : offset+len(grad)]
	cs := s.Server[offset : offset+len(grad)]
	for j := range grad {
		grad[j] += float32(cs[j] - cl[j])
	}
}

// Dyn implements FedDyn's dynamic regularizer (Acar et al., ICLR 2021,
// reference [2] of the paper): the local objective gains a linear term
// -<h_i, w> and a proximal term (alpha/2)*||w - w_global||^2, so the
// gradient gains alpha*(w - w_global) - h_i, where h_i is the party's
// accumulated first-order state.
type Dyn struct {
	Alpha  float64
	Global []float64
	H      []float64
}

// Correct applies FedDyn's gradient modification.
func (d *Dyn) Correct(grad []float64, param []float64, offset int) {
	g := d.Global[offset : offset+len(param)]
	h := d.H[offset : offset+len(param)]
	for j := range grad {
		grad[j] += d.Alpha*(param[j]-g[j]) - h[j]
	}
}

// Correct32 applies FedDyn's modification to a float32 gradient.
func (d *Dyn) Correct32(grad []float32, param []float32, offset int) {
	g := d.Global[offset : offset+len(param)]
	h := d.H[offset : offset+len(param)]
	alpha := float32(d.Alpha)
	for j := range grad {
		grad[j] += alpha*(param[j]-float32(g[j])) - float32(h[j])
	}
}
