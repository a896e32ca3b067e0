package tensor

// x86HasAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// microkernels. Implemented in gemm_amd64.s.
func x86HasAVX2FMA() bool

// The microkernels, instantiated in gemm_amd64.s from the one body in
// gemm_kernels_amd64.h: full tile (accumulate), full tile (store) and
// narrow tile for each dtype. kb must be >= 1; off holds kb step offsets
// and ldd is in elements.

//go:noescape
func sgemm4x16s(a0, a1, a2, a3 *float32, off *int, b *float32, kb uintptr, d *float32, ldd uintptr)

//go:noescape
func sgemm4x16st(a0, a1, a2, a3 *float32, off *int, b *float32, kb uintptr, d *float32, ldd uintptr)

//go:noescape
func sgemm4x8s(a0, a1, a2, a3 *float32, off *int, b *float32, kb uintptr, d *float32, ldd uintptr)

//go:noescape
func dgemm4x8s(a0, a1, a2, a3 *float64, off *int, b *float64, kb uintptr, d *float64, ldd uintptr)

//go:noescape
func dgemm4x8st(a0, a1, a2, a3 *float64, off *int, b *float64, kb uintptr, d *float64, ldd uintptr)

//go:noescape
func dgemm4x4s(a0, a1, a2, a3 *float64, off *int, b *float64, kb uintptr, d *float64, ldd uintptr)

// The int8 codec kernels in quant_amd64.s; each covers len/16 whole
// blocks and leaves the tail to its Go twin in quant.go.

//go:noescape
func maxAbsAVX2(v []float64) (m float64, finite bool)

//go:noescape
func quantizeInt8AVX2(dst []byte, v []float64, scale float64)

//go:noescape
func dequantizeInt8AVX2(dst []float64, src []byte, scale float64)

// hasAVX2FMA is the one CPU probe; SetVectorKernels never sets useFMA
// past it.
var hasAVX2FMA = x86HasAVX2FMA()

// useFMA gates the assembly kernels: the GEMM microkernels of both dtypes
// and the int8 codec's. Tests flip it to exercise both kernel paths on the
// same machine.
var useFMA = hasAVX2FMA

var (
	asmKernels32 = [3]asmTile[float32]{tileFull: sgemm4x16s, tileStore: sgemm4x16st, tileNarrow: sgemm4x8s}
	asmKernels64 = [3]asmTile[float64]{tileFull: dgemm4x8s, tileStore: dgemm4x8st, tileNarrow: dgemm4x4s}
)
