package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// convCase is one convolution: b images of c channels, h x w, a k x k
// kernel at the given stride and padding, oc output channels.
type convCase struct{ b, c, h, w, oc, k, stride, pad int }

// convCases crosses kernels {1, 3, 5}, padding {0, 1}, stride {1, 2} and
// batches {1, 3, 32} with channel counts below, at and above the 4-row
// tile and both dtypes' panel widths — an oc whose final panel is half a
// panel or less takes the half-width kernel in the materialized product —
// plus patch lengths past the 256-step k-block.
func convCases() []convCase {
	chans := [][2]int{{1, 1}, {3, 6}, {4, 4}, {8, 8}, {17, 16}, {3, 19}, {16, 9}, {2, 17}, {5, 3}, {6, 24}}
	var out []convCase
	i := 0
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []int{0, 1} {
			for _, stride := range []int{1, 2} {
				for _, b := range []int{1, 3, 32} {
					ch := chans[i%len(chans)]
					i++
					out = append(out, convCase{b: b, c: ch[0], h: 9, w: 7, oc: ch[1], k: k, stride: stride, pad: pad})
				}
			}
		}
	}
	// k = 288 and 450: VGG's 32-channel 3x3 patch and a 5x5 one, both
	// past kc; then padding as wide as the kernel, where whole kernel rows
	// and runs fall outside the image.
	return append(out,
		convCase{b: 3, c: 32, h: 6, w: 6, oc: 10, k: 3, stride: 1, pad: 1},
		convCase{b: 32, c: 18, h: 8, w: 8, oc: 6, k: 5, stride: 1, pad: 0},
		convCase{b: 3, c: 2, h: 5, w: 4, oc: 5, k: 3, stride: 2, pad: 3},
		convCase{b: 2, c: 3, h: 6, w: 7, oc: 16, k: 5, stride: 1, pad: 2},
	)
}

// nchwRows copies between the NCHW tensor planes (b, c, hw) and the
// (b*hw, c) row matrix rows, in the direction toRows says. Widening to
// float64 and back is exact, so it serves both dtypes.
func nchwRows(planes, rows *Tensor, b, c, hw int, toRows bool) {
	p, r := make([]float64, planes.Len()), make([]float64, rows.Len())
	planes.CopyToF64(p)
	rows.CopyToF64(r)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			for j := 0; j < hw; j++ {
				if toRows {
					r[(bi*hw+j)*c+ci] = p[(bi*c+ci)*hw+j]
				} else {
					p[(bi*c+ci)*hw+j] = r[(bi*hw+j)*c+ci]
				}
			}
		}
	}
	planes.CopyFromF64(p)
	rows.CopyFromF64(r)
}

// convOracle runs the materialized twin of the three conv entries: the
// patch matrix from Im2ColInto, the MatMul entries, and Col2ImInto.
func convOracle(cc convCase, x, w, bias, grad *Tensor) (out, dw, dx *Tensor) {
	one := Compute{Workers: 1}
	dt := x.DType()
	oh, ow := ConvOutSize(cc.h, cc.k, cc.stride, cc.pad), ConvOutSize(cc.w, cc.k, cc.stride, cc.pad)
	rows, k := cc.b*oh*ow, cc.c*cc.k*cc.k
	cols := one.Im2ColInto(NewOf(dt, rows, k), x, cc.k, cc.k, cc.stride, cc.pad)
	prod := NewOf(dt, rows, cc.oc)
	one.MatMulInto(prod, cols, w)
	prod.AddRowVector(bias)
	out = NewOf(dt, cc.b, cc.oc, oh, ow)
	nchwRows(out, prod, cc.b, cc.oc, oh*ow, false)
	gcols := NewOf(dt, rows, cc.oc)
	nchwRows(grad, gcols, cc.b, cc.oc, oh*ow, true)
	dw = NewOf(dt, k, cc.oc)
	one.MatMulTransAInto(dw, cols, gcols)
	dcols := NewOf(dt, rows, k)
	one.MatMulTransBInto(dcols, gcols, w)
	dx = one.Col2ImInto(NewOf(dt, cc.b, cc.c, cc.h, cc.w), dcols, cc.k, cc.k, cc.stride, cc.pad)
	return out, dw, dx
}

// checkBitwise fails unless got and want hold the same bits.
func checkBitwise(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	g, w := make([]float64, got.Len()), make([]float64, want.Len())
	got.CopyToF64(g)
	want.CopyToF64(w)
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s[%d] = %v, materialized twin %v", name, i, g[i], w[i])
		}
	}
}

// TestConvMatchesMaterialized pins the conv entries to their materialized
// twins bit for bit — the forward output (with bias), the weight gradient
// and the input gradient — in both dtypes, on both kernel paths, and under
// worker budgets of 1, 2 and 3.
func TestConvMatchesMaterialized(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, cc := range convCases() {
		for _, dt := range []DType{Float64, Float32} {
			name := fmt.Sprintf("%v/b%d_c%d_oc%d_k%d_s%d_p%d", dt, cc.b, cc.c, cc.oc, cc.k, cc.stride, cc.pad)
			t.Run(name, func(t *testing.T) {
				oh, ow := ConvOutSize(cc.h, cc.k, cc.stride, cc.pad), ConvOutSize(cc.w, cc.k, cc.stride, cc.pad)
				x := NewOf(dt, cc.b, cc.c, cc.h, cc.w)
				w := NewOf(dt, cc.c*cc.k*cc.k, cc.oc)
				bias := NewOf(dt, cc.oc)
				grad := NewOf(dt, cc.b, cc.oc, oh, ow)
				for i, v := range []*Tensor{x, w, bias, grad} {
					fillDetOf(v, i+1)
				}
				withBothKernelPaths(t, func(t *testing.T) {
					wantOut, wantDW, wantDX := convOracle(cc, x, w, bias, grad)
					out, dw, dx := NewOf(dt, wantOut.Shape()...), NewOf(dt, wantDW.Shape()...), NewOf(dt, wantDX.Shape()...)
					for _, workers := range []int{1, 2, 3} {
						cmp := Compute{Workers: workers}
						// Dirty destinations: every entry overwrites.
						for _, d := range []*Tensor{out, dw, dx} {
							d.Fill(7)
						}
						cmp.ConvInto(out, x, w, bias, cc.k, cc.k, cc.stride, cc.pad)
						cmp.ConvWeightGradInto(dw, x, grad, cc.k, cc.k, cc.stride, cc.pad)
						cmp.ConvInputGradInto(dx, grad, w, cc.k, cc.k, cc.stride, cc.pad)
						checkBitwise(t, fmt.Sprintf("workers=%d out", workers), out, wantOut)
						checkBitwise(t, fmt.Sprintf("workers=%d dw", workers), dw, wantDW)
						checkBitwise(t, fmt.Sprintf("workers=%d dx", workers), dx, wantDX)
					}
				})
			})
		}
	}
}

// TestConvShapePanics checks that a mis-shaped operand is refused.
func TestConvShapePanics(t *testing.T) {
	x, w, bias := NewOf(Float64, 2, 3, 6, 6), NewOf(Float64, 27, 4), NewOf(Float64, 4)
	for name, run := range map[string]func(){
		"out": func() { Compute{}.ConvInto(NewOf(Float64, 2, 4, 3, 4), x, w, bias, 3, 3, 1, 0) },
		"w":   func() { Compute{}.ConvInto(NewOf(Float64, 2, 4, 4, 4), x, NewOf(Float64, 26, 4), bias, 3, 3, 1, 0) },
		"dw":  func() { Compute{}.ConvWeightGradInto(NewOf(Float64, 27, 5), x, NewOf(Float64, 2, 4, 4, 4), 3, 3, 1, 0) },
		"grad": func() {
			Compute{}.ConvInputGradInto(NewOf(Float64, 2, 3, 6, 6), NewOf(Float64, 2, 4, 4, 3), w, 3, 3, 1, 0)
		},
		"dtype": func() { Compute{}.ConvInto(NewOf(Float64, 2, 4, 4, 4), x, NewOf(Float32, 27, 4), bias, 3, 3, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mis-shaped operand accepted", name)
				}
			}()
			run()
		}()
	}
}
