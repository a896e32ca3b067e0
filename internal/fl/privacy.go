package fl

import (
	"math"
	"sort"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// dpSanitize applies DP-SGD-style gradient sanitization to the model's
// accumulated gradients: the concatenated parameter gradient is clipped to
// L2 norm clip, then zero-mean Gaussian noise with standard deviation
// noiseMultiplier*clip/batch is added per coordinate.
//
// This implements the *mechanism* the paper points to in its
// privacy-preserving-data-mining future direction (Section VI-A); it does
// not implement a privacy accountant, so no (epsilon, delta) guarantee is
// claimed — callers must compose one themselves.
func dpSanitize(m *nn.Sequential, clip, noiseMultiplier float64, batch int, r *rng.RNG) {
	if clip <= 0 {
		return
	}
	var sq float64
	for _, p := range m.Params() {
		sq += tensor.Dot(p.Grad, p.Grad)
	}
	norm := math.Sqrt(sq)
	scale := 1.0
	if norm > clip {
		scale = clip / norm
	}
	noiseStd := 0.0
	if noiseMultiplier > 0 && batch > 0 {
		noiseStd = noiseMultiplier * clip / float64(batch)
	}
	for _, p := range m.Params() {
		if p.Grad.DType() == tensor.Float32 {
			sanitize(p.Grad.Data32(), scale, noiseStd, r)
		} else {
			sanitize(p.Grad.Data(), scale, noiseStd, r)
		}
	}
}

// sanitize scales one gradient by scale and, when noiseStd > 0, adds one
// Gaussian draw per element in order.
func sanitize[T tensor.Elem](g []T, scale, noiseStd float64, r *rng.RNG) {
	s := T(scale)
	for i := range g {
		g[i] *= s
		if noiseStd > 0 {
			g[i] += T(r.Gaussian(0, noiseStd))
		}
	}
}

// compressTopK zeroes all but the k largest-magnitude entries of the
// parameter prefix of delta (buffers are left intact: batch-norm statistics
// are tiny and structurally required). fraction is the kept share in
// (0, 1]; it returns the number of parameter entries kept.
//
// Top-k sparsification is the standard gradient-compression baseline for
// the communication-efficiency direction the paper discusses (Section
// VI-B, "Fast Training").
func compressTopK(delta []float64, paramLen int, fraction float64) int {
	if fraction <= 0 || fraction >= 1 || paramLen == 0 {
		return paramLen
	}
	k := int(fraction * float64(paramLen))
	if k < 1 {
		k = 1
	}
	mags := make([]float64, paramLen)
	for i := 0; i < paramLen; i++ {
		mags[i] = math.Abs(delta[i])
	}
	sorted := append([]float64{}, mags...)
	sort.Float64s(sorted)
	threshold := sorted[paramLen-k]
	kept := 0
	for i := 0; i < paramLen; i++ {
		if mags[i] >= threshold && kept < k {
			kept++
		} else {
			delta[i] = 0
		}
	}
	return kept
}

// sparseCommBytes estimates the wire size of a top-k compressed update:
// each kept entry ships a 4-byte index and an 8-byte value, plus the dense
// buffer suffix.
func sparseCommBytes(kept, paramLen, stateLen int) int64 {
	bufferBytes := int64(stateLen-paramLen) * 8
	return int64(kept)*12 + bufferBytes + 16 // 16 bytes of framing/header
}
