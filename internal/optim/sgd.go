// Package optim implements the optimizer used by NIID-Bench. The paper
// trains every algorithm with SGD plus momentum; FedProx, SCAFFOLD and
// FedDyn modify the per-step gradient, which this package expresses as at
// most one gradient corrector applied before the momentum update.
//
// One generic body serves both compute dtypes: float32 parameters get
// float32 velocity and a float32 update loop, while the corrector's own
// state (control variates, the global model) stays []float64 — it comes
// from the server-side aggregation, which is always full precision — and
// is narrowed per element.
package optim

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Corrector adjusts the raw mini-batch gradient of each parameter before
// the SGD update. It is one of *Proximal, *Scaffold or *Dyn; their flat
// state is indexed by the parameter's offset in the flat parameter vector.
type Corrector interface{ corrector() }

func (*Proximal) corrector() {}
func (*Scaffold) corrector() {}
func (*Dyn) corrector()      {}

// SGD is stochastic gradient descent with classical momentum:
//
//	v <- momentum*v + g
//	w <- w - lr*v
//
// matching the paper's optimizer (lr 0.01/0.1, momentum 0.9).
type SGD struct {
	LR       float64
	Momentum float64
	// Corrector, when non-nil, modifies each gradient before the update
	// (FedProx, SCAFFOLD, FedDyn); nil for plain SGD.
	Corrector Corrector
	velocity  []*tensor.Tensor
}

// NewSGD creates an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: non-positive learning rate %v", lr))
	}
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one SGD update to every parameter of the model using the
// gradients its last backward pass wrote.
func (o *SGD) Step(m *nn.Sequential) {
	params := m.Params()
	if o.velocity == nil {
		o.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			o.velocity[i] = tensor.NewOf(p.Data.DType(), p.Data.Len())
		}
	}
	if len(o.velocity) != len(params) {
		panic("optim: model parameter structure changed between steps")
	}
	offset := 0
	for i, p := range params {
		if p.Data.DType() == tensor.Float32 {
			step(o, p.Data.Data32(), p.Grad.Data32(), o.velocity[i].Data32(), offset)
		} else {
			step(o, p.Data.Data(), p.Grad.Data(), o.velocity[i].Data(), offset)
		}
		offset += p.Data.Len()
	}
}

func step[T tensor.Elem](o *SGD, w, g, v []T, offset int) {
	correct(o.Corrector, g, w, offset)
	lr := T(o.LR)
	if o.Momentum != 0 {
		mom := T(o.Momentum)
		for j := range w {
			v[j] = mom*v[j] + g[j]
			w[j] -= lr * v[j]
		}
	} else {
		for j := range w {
			w[j] -= lr * g[j]
		}
	}
}

// correct applies c to one parameter's gradient; the corrector's float64
// state is narrowed per element for float32 models.
func correct[T tensor.Elem](c Corrector, grad, param []T, offset int) {
	switch c := c.(type) {
	case *Proximal:
		g := c.Global[offset : offset+len(param)]
		mu := T(c.Mu)
		for j := range grad {
			grad[j] += mu * (param[j] - T(g[j]))
		}
	case *Scaffold:
		cl := c.Local[offset : offset+len(grad)]
		cs := c.Server[offset : offset+len(grad)]
		for j := range grad {
			grad[j] += T(cs[j] - cl[j])
		}
	case *Dyn:
		g := c.Global[offset : offset+len(param)]
		h := c.H[offset : offset+len(param)]
		alpha := T(c.Alpha)
		for j := range grad {
			grad[j] += alpha*(param[j]-T(g[j])) - T(h[j])
		}
	}
}

// Reset clears the momentum buffers, as happens at the start of each
// federated round when a party receives a fresh global model.
func (o *SGD) Reset() {
	for _, v := range o.velocity {
		v.Zero()
	}
}

// Proximal implements FedProx's gradient modification: the local objective
// gains (mu/2)*||w - w_global||^2, i.e. the gradient gains mu*(w - w_global).
// Global is the flat *parameter* vector of the round's global model.
type Proximal struct {
	Mu     float64
	Global []float64
}

// Scaffold implements SCAFFOLD's gradient correction: g <- g - c_i + c,
// where c_i is the party's control variate and c the server's.
type Scaffold struct {
	// Local and Server are flat parameter-length control variates.
	Local, Server []float64
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
