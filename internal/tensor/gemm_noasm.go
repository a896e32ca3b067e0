//go:build !amd64

package tensor

// useFMA is always false without the amd64 microkernels: the pure-Go tile
// kernel in gemm.go handles everything and the assembly slots stay nil.
// (A var, not a const, so shared test code that saves/restores it compiles
// on every architecture.)
var useFMA = false

const hasAVX2FMA = false

// The int8 codec's assembly slots, never called with useFMA false.
func maxAbsAVX2([]float64) (float64, bool)          { panic("tensor: no assembly kernels") }
func quantizeInt8AVX2([]byte, []float64, float64)   { panic("tensor: no assembly kernels") }
func dequantizeInt8AVX2([]float64, []byte, float64) { panic("tensor: no assembly kernels") }

var (
	asmKernels32 [3]asmTile[float32]
	asmKernels64 [3]asmTile[float64]
)
