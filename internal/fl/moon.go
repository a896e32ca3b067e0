package fl

import (
	"math"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// moonTemp is the softmax temperature of MOON's contrastive loss (the
// MOON paper's default). ConfigFingerprint mixes it.
const moonTemp = 0.5

// moonScratch holds MOON's reusable per-batch buffers: the contrastive
// gradient and the two per-sample cosine-gradient vectors.
type moonScratch struct {
	dz       *tensor.Tensor
	dsg, dsp []float64
}

// MOON's model-contrastive local training (Li, He, Song — CVPR 2021,
// reference [40] of the paper) runs through Client.TrainStream like every
// other algorithm; its local loss adds one term,
//
//	CE(w; x, y) + mu * L_con
//	L_con = -log( exp(sim(z, z_glob)/T) / (exp(sim(z, z_glob)/T) + exp(sim(z, z_prev)/T)) )
//
// where z is the representation (the input of the final classifier layer)
// of the current local model, z_glob that of the round's global model, and
// z_prev that of the party's previous local model. The contrastive term
// pulls the local representation toward the global model's and pushes it
// away from the stale local one, countering drift.

// readyMoon loads the round's frozen models into MOON's replicas: the
// global one and the party's previous local one.
func (c *Client) readyMoon(global []float64) {
	if c.auxGlobal == nil {
		// Frozen replicas for representation extraction: they only run
		// Forward in eval mode, so they carry no gradients, and SetState
		// fills their weights every round. The party's stream still
		// advances by two Splits here: batch order and every later draw,
		// and so TestLocalUpdatePin's MOON rows and the artifact goldens,
		// depend on where it stands.
		c.r.Split()
		c.r.Split()
		c.auxGlobal = nn.BuildInference(c.Spec)
		c.auxPrev = nn.BuildInference(c.Spec)
		c.auxGlobal.SetCompute(c.cmp)
		c.auxPrev.SetCompute(c.cmp)
	}
	if c.prevState == nil {
		// First round: the "previous" model is the global one; the
		// contrastive gradient vanishes, which is MOON's cold start.
		c.prevState = append([]float64{}, global...)
	}
	c.auxGlobal.SetState(global)
	c.auxPrev.SetState(c.prevState)
}

// addContrastive adds mu/B · ∂L_con/∂z — scale is mu/B — to g, the
// cross-entropy gradient at the representation z of the batch x, and
// returns the batch's mean contrastive loss. The replicas run in eval mode
// so their BN statistics stay untouched.
func (c *Client) addContrastive(x, z, g *tensor.Tensor, scale float64) float64 {
	global, _ := split(c.auxGlobal)
	prev, _ := split(c.auxPrev)
	conLoss, dz := contrastiveGradInto(&c.moon, z, global.Forward(x, false), prev.Forward(x, false), moonTemp)
	g.AddScaled(scale, dz)
	return conLoss
}

// contrastiveGradInto computes MOON's mean contrastive loss over the batch
// and the gradient of the *sum* of per-sample losses with respect to z
// (the caller scales by mu/batch). z, zg, zp are (batch, dim) tensors; the
// returned gradient tensor is owned by s, matches z's dtype and is valid
// until the next call.
func contrastiveGradInto(s *moonScratch, z, zg, zp *tensor.Tensor, temp float64) (float64, *tensor.Tensor) {
	b, d := z.Dim(0), z.Dim(1)
	s.dz = tensor.EnsureOf(z.DType(), s.dz, b, d)
	if cap(s.dsg) < d {
		s.dsg = make([]float64, d)
		s.dsp = make([]float64, d)
	}
	dsg, dsp := s.dsg[:d], s.dsp[:d]
	var total float64
	if z.DType() == tensor.Float32 {
		total = contrastiveRows(z.Data32(), zg.Data32(), zp.Data32(), s.dz.Data32(), dsg, dsp, b, d, temp)
	} else {
		total = contrastiveRows(z.Data(), zg.Data(), zp.Data(), s.dz.Data(), dsg, dsp, b, d, temp)
	}
	return total / float64(b), s.dz
}

// contrastiveRows is the dtype-generic body of contrastiveGradInto; the
// similarity math runs in float64 and the gradient narrows on write.
func contrastiveRows[T tensor.Elem](zd, zgd, zpd, dzd []T, dsg, dsp []float64, b, d int, temp float64) float64 {
	var total float64
	for i := 0; i < b; i++ {
		zi := zd[i*d : (i+1)*d]
		gi := zgd[i*d : (i+1)*d]
		pi := zpd[i*d : (i+1)*d]
		out := dzd[i*d : (i+1)*d]

		sg := cosineWithGradOf(zi, gi, dsg)
		sp := cosineWithGradOf(zi, pi, dsp)
		// Two-way softmax with the global similarity as the positive.
		eg := math.Exp(sg / temp)
		ep := math.Exp(sp / temp)
		sigma := eg / (eg + ep)
		total += -math.Log(math.Max(sigma, 1e-12))
		cg := (sigma - 1) / temp // dL/dsg
		cp := (1 - sigma) / temp // dL/dsp
		for j := 0; j < d; j++ {
			out[j] = T(cg*dsg[j] + cp*dsp[j])
		}
	}
	return total
}

// cosineWithGradOf writes d cos/d a into grad (fully overwritten) and
// returns cos(a, b); degenerate (near-zero) norms yield zero similarity
// and gradient. The accumulation and the gradient stay float64 whatever
// the input element type.
func cosineWithGradOf[T tensor.Elem](a, b []T, grad []float64) float64 {
	var dot, na, nb float64
	for j := range a {
		av, bv := float64(a[j]), float64(b[j])
		dot += av * bv
		na += av * av
		nb += bv * bv
	}
	na, nb = math.Sqrt(na), math.Sqrt(nb)
	if na < 1e-12 || nb < 1e-12 {
		for j := range grad {
			grad[j] = 0
		}
		return 0
	}
	cos := dot / (na * nb)
	for j := range a {
		grad[j] = float64(b[j])/(na*nb) - cos*float64(a[j])/(na*na)
	}
	return cos
}
