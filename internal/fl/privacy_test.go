package fl

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

func gradNorm(m *nn.Sequential) float64 {
	var sq float64
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data() {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

func TestDPSanitizeClips(t *testing.T) {
	r := rng.New(1)
	m := nn.NewSequential(nn.NewDenseOf(tensor.Float64, 4, 3, r))
	for _, p := range m.Params() {
		p.Grad.Fill(10)
	}
	before := gradNorm(m)
	if before <= 1 {
		t.Fatal("test setup: gradient too small")
	}
	dpSanitize(m, 1.0, 0, 32, rng.New(2))
	after := gradNorm(m)
	if math.Abs(after-1.0) > 1e-9 {
		t.Fatalf("clipped norm %v, want 1", after)
	}
}

func TestDPSanitizeNoClipBelowBound(t *testing.T) {
	r := rng.New(3)
	m := nn.NewSequential(nn.NewDenseOf(tensor.Float64, 2, 2, r))
	for _, p := range m.Params() {
		p.Grad.Fill(0.01)
	}
	before := gradNorm(m)
	dpSanitize(m, 100, 0, 32, rng.New(4))
	if math.Abs(gradNorm(m)-before) > 1e-12 {
		t.Fatal("gradient below the bound must not be scaled")
	}
}

func TestDPSanitizeNoiseMagnitude(t *testing.T) {
	r := rng.New(5)
	m := nn.NewSequential(nn.NewDenseOf(tensor.Float64, 100, 100, r)) // 10100 coords
	clip, mult, batch := 2.0, 4.0, 8
	dpSanitize(m, clip, mult, batch, rng.New(6))
	// All gradient mass is now noise with std mult*clip/batch = 1.
	var sq float64
	n := 0
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data() {
			sq += g * g
			n++
		}
	}
	std := math.Sqrt(sq / float64(n))
	if math.Abs(std-1) > 0.05 {
		t.Fatalf("noise std %v, want ~1", std)
	}
}

func TestDPSanitizeDisabled(t *testing.T) {
	r := rng.New(7)
	m := nn.NewSequential(nn.NewDenseOf(tensor.Float64, 2, 2, r))
	for _, p := range m.Params() {
		p.Grad.Fill(3)
	}
	dpSanitize(m, 0, 5, 8, rng.New(8))
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data() {
			if g != 3 {
				t.Fatal("clip=0 must disable sanitization entirely")
			}
		}
	}
}

func TestDPTrainingStillLearns(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.DPClip = 5
	cfg.DPNoise = 0.5
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("mild DP should still learn: %v", res.FinalAccuracy)
	}
}

func TestCompressTopKCounts(t *testing.T) {
	delta := []float64{5, -1, 0.5, 4, -3, 2, 0.1, 9, 99, 99} // last 2 = buffers
	kept := compressTopK(delta, 8, 0.25)
	if kept != 2 {
		t.Fatalf("kept %d, want 2", kept)
	}
	// The two largest magnitudes among params are 9 (idx 7) and 5 (idx 0).
	if delta[7] != 9 || delta[0] != 5 {
		t.Fatalf("top entries lost: %v", delta)
	}
	nonzero := 0
	for i := 0; i < 8; i++ {
		if delta[i] != 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("%d nonzero params, want 2: %v", nonzero, delta)
	}
	// Buffers untouched.
	if delta[8] != 99 || delta[9] != 99 {
		t.Fatal("buffers must not be compressed")
	}
}

func TestCompressTopKProperty(t *testing.T) {
	err := quick.Check(func(raw []float64, fracRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) {
				raw[i] = 0
			}
		}
		frac := (float64(fracRaw%90) + 5) / 100 // 0.05..0.94
		delta := append([]float64{}, raw...)
		kept := compressTopK(delta, len(delta), frac)
		want := int(frac * float64(len(raw)))
		if want < 1 {
			want = 1
		}
		nonzero := 0
		for _, v := range delta {
			if v != 0 {
				nonzero++
			}
		}
		// Zeros in the input can make nonzero < kept; kept must match the
		// requested k and nonzero cannot exceed it.
		return kept == want && nonzero <= kept
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressTopKDisabled(t *testing.T) {
	delta := []float64{1, 2, 3}
	if kept := compressTopK(delta, 3, 0); kept != 3 {
		t.Fatalf("disabled compression kept %d", kept)
	}
	if delta[0] != 1 || delta[2] != 3 {
		t.Fatal("disabled compression modified delta")
	}
}

func TestCompressionReducesCommBytes(t *testing.T) {
	plain := quickCfg(FedAvg)
	comp := quickCfg(FedAvg)
	comp.CompressTopK = 0.1
	simP, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, plain)
	simC, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, comp)
	mP, err := simP.RunRound(0)
	if err != nil {
		t.Fatal(err)
	}
	mC, err := simC.RunRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if mC.CommBytes >= mP.CommBytes {
		t.Fatalf("compression did not reduce bytes: %d vs %d", mC.CommBytes, mP.CommBytes)
	}
	// Downlink is still dense, so the floor is ~half the plain volume.
	if mC.CommBytes < mP.CommBytes/2 {
		t.Fatalf("compressed bytes %d below dense downlink floor %d", mC.CommBytes, mP.CommBytes/2)
	}
}

func TestCompressedTrainingStillLearns(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.CompressTopK = 0.25
	cfg.Rounds = 5
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("top-25%% compression should still learn: %v", res.FinalAccuracy)
	}
}
