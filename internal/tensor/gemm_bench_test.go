package tensor

import (
	"fmt"
	"testing"
)

// benchFill writes a deterministic non-trivial pattern so the kernels see
// realistic (dense, non-zero) operands, whatever the dtype.
func benchFill(t *Tensor, seed int) {
	for i := 0; i < t.Len(); i++ {
		v := float64((i*7+seed*13)%23)/11 - 1
		if t.dt == Float32 {
			t.data32[i] = float32(v)
		} else {
			t.data[i] = v
		}
	}
}

// gemmSizes are products dst(m,n) = op(a)(m,k) @ op(b)(k,n). Besides the
// square sizes they hold the shapes the zoo models actually run, which
// are all edge tiles: n=6 leaves a third of an f64 panel empty, and 13
// rows leave one row over the 4-row tile.
var gemmSizes = []struct{ m, k, n int }{
	{64, 64, 64},
	{256, 64, 150},
	{256, 256, 256},
	{4608, 75, 6},  // CNN conv-1: (B*oh*ow, inC*kh*kw) @ (inC*kh*kw, outC), batch 32
	{128, 150, 16}, // CNN conv-2
	{12, 8192, 32}, // wide MLP first layer, 12-row batch
	{13, 8192, 32}, // ... and one row past the tile height
}

// benchGEMM times one GEMM variant over gemmSizes: ta/tb select which
// operand is stored transposed.
func benchGEMM(b *testing.B, dt DType, ta, tb bool, run func(dst, a, bb *Tensor)) {
	for _, s := range gemmSizes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			a, bb, dst := NewOf(dt, s.m, s.k), NewOf(dt, s.k, s.n), NewOf(dt, s.m, s.n)
			if ta {
				a = NewOf(dt, s.k, s.m)
			}
			if tb {
				bb = NewOf(dt, s.n, s.k)
			}
			benchFill(a, 1)
			benchFill(bb, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(dst, a, bb)
			}
		})
	}
}

func BenchmarkMatMul(b *testing.B) { benchGEMM(b, Float64, false, false, Compute{}.MatMulInto) }
func BenchmarkMatMulTransA(b *testing.B) {
	benchGEMM(b, Float64, true, false, Compute{}.MatMulTransAInto)
}
func BenchmarkMatMulTransB(b *testing.B) {
	benchGEMM(b, Float64, false, true, Compute{}.MatMulTransBInto)
}
func BenchmarkMatMul32(b *testing.B) { benchGEMM(b, Float32, false, false, Compute{}.MatMulInto) }
func BenchmarkMatMulTransA32(b *testing.B) {
	benchGEMM(b, Float32, true, false, Compute{}.MatMulTransAInto)
}
func BenchmarkMatMulTransB32(b *testing.B) {
	benchGEMM(b, Float32, false, true, Compute{}.MatMulTransBInto)
}

// benchConv times one conv entry at the CNN's conv-1 shape — a batch of
// 32 3x16x16 images, a 5x5 kernel and 6 output channels — in both dtypes,
// on one worker.
func benchConv(b *testing.B, run func(cmp Compute, x, w, bias, out *Tensor)) {
	for _, dt := range []DType{Float64, Float32} {
		b.Run(dt.String(), func(b *testing.B) {
			x, w, bias, out := NewOf(dt, 32, 3, 16, 16), NewOf(dt, 75, 6), NewOf(dt, 6), NewOf(dt, 32, 6, 12, 12)
			for i, t := range []*Tensor{x, w, bias, out} {
				benchFill(t, i+1)
			}
			cmp := Compute{Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(cmp, x, w, bias, out)
			}
		})
	}
}

func BenchmarkConvForward(b *testing.B) {
	benchConv(b, func(cmp Compute, x, w, bias, out *Tensor) { cmp.ConvInto(out, x, w, bias, 5, 5, 1, 0) })
}

// BenchmarkConvWeightGrad reads out as the output gradient and writes w.
func BenchmarkConvWeightGrad(b *testing.B) {
	benchConv(b, func(cmp Compute, x, w, _, out *Tensor) { cmp.ConvWeightGradInto(w, x, out, 5, 5, 1, 0) })
}
