package fl

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/tensor"
)

func TestExtendedAlgorithmsList(t *testing.T) {
	ext := ExtendedAlgorithms()
	if len(ext) != 6 || ext[4] != FedDyn || ext[5] != Moon {
		t.Fatalf("extended algorithms: %v", ext)
	}
}

func TestFedDynRunsAndLearns(t *testing.T) {
	cfg := quickCfg(FedDyn)
	cfg.Alpha = 0.01
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 4, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("feddyn accuracy %v", res.FinalAccuracy)
	}
	// Client and server dyn states must be populated.
	if sim.server.dynH == nil {
		t.Fatal("server dynH missing")
	}
	var norm float64
	for _, v := range sim.server.dynH {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("server dynH never updated")
	}
	for _, cl := range sim.Clients {
		if cl.dynH == nil {
			t.Fatal("client dynH missing")
		}
	}
}

func TestMoonRunsAndLearns(t *testing.T) {
	cfg := quickCfg(Moon)
	cfg.MoonMu = 1
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 4, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("moon accuracy %v", res.FinalAccuracy)
	}
	for _, cl := range sim.Clients {
		if cl.prevState == nil {
			t.Fatal("moon client never recorded its previous model")
		}
		// The frozen replicas only run Forward: they hold no gradients.
		for _, aux := range []*nn.Sequential{cl.auxGlobal, cl.auxPrev} {
			for _, p := range aux.Params() {
				if p.Grad != nil {
					t.Fatalf("moon aux replica parameter %s carries a gradient", p.Name)
				}
			}
		}
	}
}

func TestMoonZeroMuMatchesShape(t *testing.T) {
	// With mu=0 the contrastive term contributes nothing; the run should
	// behave like FedAvg to within noise.
	cfgM := quickCfg(Moon)
	cfgM.MoonMu = 1e-12
	simM, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfgM)
	resM, err := simM.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfgA := quickCfg(FedAvg)
	simA, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfgA)
	resA, err := simA.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resM.FinalAccuracy-resA.FinalAccuracy) > 0.15 {
		t.Fatalf("moon(mu~0) %v vs fedavg %v", resM.FinalAccuracy, resA.FinalAccuracy)
	}
}

func TestCosineWithGrad(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{1, 0}
	cos, _ := cosineWithGrad(a, b)
	if math.Abs(cos-1) > 1e-12 {
		t.Fatalf("cos of identical: %v", cos)
	}
	cos, _ = cosineWithGrad([]float64{1, 0}, []float64{0, 1})
	if math.Abs(cos) > 1e-12 {
		t.Fatalf("cos of orthogonal: %v", cos)
	}
	// Numerical gradient check.
	a = []float64{0.3, -0.7, 1.2}
	bv := []float64{-0.5, 0.4, 0.9}
	_, grad := cosineWithGrad(a, bv)
	const eps = 1e-6
	for j := range a {
		orig := a[j]
		a[j] = orig + eps
		cp, _ := cosineWithGrad(a, bv)
		a[j] = orig - eps
		cm, _ := cosineWithGrad(a, bv)
		a[j] = orig
		num := (cp - cm) / (2 * eps)
		if math.Abs(num-grad[j]) > 1e-6 {
			t.Fatalf("cosine grad coord %d: analytic %v numeric %v", j, grad[j], num)
		}
	}
	// Degenerate zero vector must not blow up.
	cos, grad = cosineWithGrad([]float64{0, 0}, []float64{1, 1})
	if cos != 0 || grad[0] != 0 {
		t.Fatal("degenerate cosine should be zero")
	}
}

func TestContrastiveGradNumerical(t *testing.T) {
	b, d := 3, 4
	mk := func(vals ...float64) *tensor.Tensor { return tensor.ViewInto(nil, vals, b, d) }
	z := mk(0.5, -0.2, 0.8, 0.1, 1.0, 0.3, -0.4, 0.2, -0.6, 0.9, 0.05, -0.3)
	zg := mk(0.4, -0.1, 0.9, 0.2, 0.8, 0.5, -0.2, 0.1, -0.5, 1.0, 0.1, -0.2)
	zp := mk(-0.3, 0.7, 0.2, -0.8, 0.1, -0.9, 0.6, 0.4, 0.3, -0.2, 0.8, 0.5)
	temp := 0.5
	_, dz := contrastiveGrad(z, zg, zp, temp)
	// contrastiveGrad returns the gradient of the SUM of per-sample losses;
	// the reported loss is the mean, so scale by b.
	const eps = 1e-6
	for idx := 0; idx < b*d; idx += 3 {
		orig := z.Data()[idx]
		z.Data()[idx] = orig + eps
		lp, _ := contrastiveGrad(z, zg, zp, temp)
		z.Data()[idx] = orig - eps
		lm, _ := contrastiveGrad(z, zg, zp, temp)
		z.Data()[idx] = orig
		num := (lp - lm) / (2 * eps) * float64(b)
		if math.Abs(num-dz.Data()[idx]) > 1e-5 {
			t.Fatalf("contrastive grad idx %d: analytic %v numeric %v", idx, dz.Data()[idx], num)
		}
	}
}

func TestContrastiveColdStartZeroGrad(t *testing.T) {
	// When z_glob == z_prev the two similarity gradients cancel.
	z := tensor.ViewInto(nil, []float64{0.5, -0.2, 0.8}, 1, 3)
	same := tensor.ViewInto(nil, []float64{0.4, 0.1, 0.9}, 1, 3)
	_, dz := contrastiveGrad(z, same, same, 0.5)
	for _, v := range dz.Data() {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("cold-start gradient should vanish: %v", dz.Data())
		}
	}
}

func TestServerMomentumAccumulates(t *testing.T) {
	cfg, _ := Config{Algorithm: FedAvg, ServerOptimizer: ServerMomentum}.Normalize()
	s := NewServer(cfg, []float64{0}, 1, 1)
	u := []Update{{Delta: []float64{1}, Tau: 1, N: 1}}
	if err := aggregate(s, u); err != nil {
		t.Fatal(err)
	}
	first := -s.State()[0] // step size of first round
	before := s.State()[0]
	if err := aggregate(s, u); err != nil {
		t.Fatal(err)
	}
	second := before - s.State()[0]
	if math.Abs(first-1) > 1e-9 || math.Abs(second-1.9) > 1e-9 {
		t.Fatalf("server momentum steps: %v then %v, want 1 then 1.9", first, second)
	}
}

func TestServerAdamBoundedStep(t *testing.T) {
	cfg, _ := Config{Algorithm: FedAvg, ServerOptimizer: ServerAdam, ServerLR: 0.1}.Normalize()
	s := NewServer(cfg, []float64{0}, 1, 1)
	// Huge pseudo-gradient: Adam's normalized step stays ~lr.
	if err := aggregate(s, []Update{{Delta: []float64{1e6}, Tau: 1, N: 1}}); err != nil {
		t.Fatal(err)
	}
	step := -s.State()[0]
	if step < 0.05 || step > 0.2 {
		t.Fatalf("adam step %v, want ~lr=0.1", step)
	}
}

func TestFedDynServerCorrection(t *testing.T) {
	cfg, _ := Config{Algorithm: FedDyn, Alpha: 0.1}.Normalize()
	s := NewServer(cfg, []float64{0, 0}, 2, 2)
	u := []Update{{Delta: []float64{1, 1}, Tau: 1, N: 1}}
	if err := aggregate(s, u); err != nil {
		t.Fatal(err)
	}
	// meanDelta = 1 -> state -1; h = alpha*1/N = 0.05; state -= h/alpha = 0.5
	// -> -1.5.
	if math.Abs(s.State()[0]+1.5) > 1e-9 {
		t.Fatalf("feddyn state: %v", s.State())
	}
}

func TestExtensionsOverLabelSkew(t *testing.T) {
	// All six algorithms must at least run under label skew without error.
	for _, alg := range ExtendedAlgorithms() {
		cfg := quickCfg(alg)
		cfg.Rounds = 2
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 3, cfg)
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestEffectiveSteps(t *testing.T) {
	if got := effectiveSteps(5, 0); got != 5 {
		t.Fatalf("momentum 0: %v", got)
	}
	// With momentum the effective count exceeds tau but is bounded by
	// tau/(1-m).
	got := effectiveSteps(10, 0.9)
	if got <= 10 || got >= 100 {
		t.Fatalf("effective steps: %v", got)
	}
	// Closed form for tau=2, m=0.5: (1-0.5)/0.5 + (1-0.25)/0.5 = 1 + 1.5.
	if got := effectiveSteps(2, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("tau=2 m=0.5: %v", got)
	}
}

func TestScaffoldStableUnderMomentum(t *testing.T) {
	// Regression for the momentum/control-variate interaction: SCAFFOLD
	// with momentum 0.9 must not diverge over several rounds.
	cfg := quickCfg(Scaffold)
	cfg.Rounds = 6
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}, 4, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("scaffold diverged under momentum: %v", res.FinalAccuracy)
	}
	for _, v := range sim.server.Control() {
		if math.IsNaN(v) || math.Abs(v) > 1e3 {
			t.Fatalf("control variate exploded: %v", v)
		}
	}
}

// contrastiveGrad is contrastiveGradInto on throwaway scratch.
func contrastiveGrad(z, zg, zp *tensor.Tensor, temp float64) (float64, *tensor.Tensor) {
	var s moonScratch
	return contrastiveGradInto(&s, z, zg, zp, temp)
}

// cosineWithGrad returns cos(a, b) and d cos/d a.
func cosineWithGrad(a, b []float64) (float64, []float64) {
	grad := make([]float64, len(a))
	return cosineWithGradOf(a, b, grad), grad
}
