//go:build !amd64

package tensor

// useFMA is always false without the amd64 microkernels: the pure-Go tile
// kernel in gemm.go handles everything and the assembly slots stay nil.
// (A var, not a const, so shared test code that saves/restores it compiles
// on every architecture.)
var useFMA = false

var (
	asmKernels32 [3]asmTile[float32]
	asmKernels64 [3]asmTile[float64]
)
