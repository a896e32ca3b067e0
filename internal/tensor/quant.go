package tensor

import "math"

// The int8 wire codec's per-element kernels: the max-|v| scan that sets a
// chunk's scale, quantization to ±127 levels, and dequantization. Each has
// an AVX2 form (quant_amd64.s, gated by useFMA like the GEMM microkernels)
// that covers whole blocks of quantBlock elements, and a portable Go twin
// that covers the rest: the tail, non-amd64 builds and useFMA off. The two
// agree bit for bit. Division, multiplication and the int<->float
// conversions are exactly rounded IEEE operations in either form; truncate,
// then add ±1 where the fraction is at least one half, is math.Round's
// half-away-from-zero; and a maximum does not depend on the scan order.
const quantBlock = 16

// SetVectorKernels switches the assembly kernels (GEMM and quantization)
// off, or back on where the CPU has them, and reports whether they were
// on. It lets tests outside this package cover both paths; no kernel may
// be running while it is called.
func SetVectorKernels(on bool) (was bool) {
	was, useFMA = useFMA, on && hasAVX2FMA
	return was
}

// vectorPrefix is how many leading elements of an n-element slice the
// assembly kernels take: none with useFMA off, else whole blocks.
func vectorPrefix(n int) int {
	if !useFMA {
		return 0
	}
	return n &^ (quantBlock - 1)
}

// MaxAbs returns the largest |v[i]| (0 for an empty v) and whether every
// value is finite; m is meaningless when one is not.
func MaxAbs(v []float64) (m float64, finite bool) {
	n := vectorPrefix(len(v))
	m, finite = 0, true
	if n > 0 {
		m, finite = maxAbsAVX2(v[:n])
	}
	for _, f := range v[n:] {
		a := math.Abs(f)
		if a > m {
			m = a
		}
		finite = finite && a <= math.MaxFloat64
	}
	return m, finite
}

// QuantizeInt8 sets dst[i] to round(v[i]/scale) clamped to ±127, as an
// int8's byte, rounding half away from zero as math.Round does. v must be
// finite and dst len(v) long; a scale of 0 writes zeros.
func QuantizeInt8(dst []byte, v []float64, scale float64) {
	dst = dst[:len(v)]
	if scale == 0 {
		clear(dst)
		return
	}
	n := vectorPrefix(len(v))
	if n > 0 {
		quantizeInt8AVX2(dst[:n], v[:n], scale)
	}
	for i, f := range v[n:] {
		dst[n+i] = byte(int8(min(max(math.Round(f/scale), -127), 127)))
	}
}

// DequantizeInt8 sets dst[i] to scale * float64(int8(src[i])); src must be
// len(dst) long.
func DequantizeInt8(dst []float64, src []byte, scale float64) {
	src = src[:len(dst)]
	n := vectorPrefix(len(dst))
	if n > 0 {
		dequantizeInt8AVX2(dst[:n], src[:n], scale)
	}
	for i, b := range src[n:] {
		dst[n+i] = scale * float64(int8(b))
	}
}
