package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Reference oracles for the conv stack's per-element kernels: plain loops
// that branch on every element. TestConvKernelsMatchReference holds the
// layers' kernels to them bit for bit.

func reluForwardRef[T tensor.Elem](xd, od []T, mask []bool) {
	for i, v := range xd {
		if v > 0 {
			mask[i] = true
			od[i] = v
		} else {
			mask[i] = false
			od[i] = 0
		}
	}
}

func reluBackwardRef[T tensor.Elem](gd, od []T, mask []bool) {
	for i, g := range gd {
		if mask[i] {
			od[i] = g
		} else {
			od[i] = 0
		}
	}
}

func maxPoolForwardRef[T tensor.Elem](xd, od []T, argmax []int, b, c, h, w, outH, outW, k, stride int) {
	neg := T(math.Inf(-1))
	oi := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * h * w
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := neg
					bestIdx := -1
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx
							if ix >= w {
								continue
							}
							idx := base + iy*w + ix
							if xd[idx] > best {
								best = xd[idx]
								bestIdx = idx
							}
						}
					}
					od[oi] = best
					argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
}

func maxPoolBackwardRef[T tensor.Elem](od, gd []T, argmax []int) {
	for i, idx := range argmax {
		od[idx] += gd[i]
	}
}

// elems returns x's backing slice as []T; T must match x's dtype.
func elems[T tensor.Elem](x *tensor.Tensor) []T {
	if x.DType() == tensor.Float32 {
		return any(x.Data32()).([]T)
	}
	return any(x.Data()).([]T)
}

// bitsOf returns v's IEEE-754 bit pattern, so NaN payloads and the sign of
// zero take part in comparisons.
func bitsOf[T tensor.Elem](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// firstBitDiff returns the first index at which got and want differ bit for
// bit, or -1.
func firstBitDiff[T tensor.Elem](got, want []T) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			return i
		}
	}
	return -1
}

// saltedInput is a seeded tensor of dtype dt whose values come from nine
// levels in [-1, 1], so pooling windows tie often, with about one element
// in six replaced by NaN, +0, -0, +Inf or -Inf.
func saltedInput(dt tensor.DType, r *rng.RNG, shape ...int) *tensor.Tensor {
	x := tensor.NewOf(dt, shape...)
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	vals := make([]float64, x.Len())
	for i := range vals {
		if r.Intn(6) == 0 {
			vals[i] = special[r.Intn(len(special))]
		} else {
			vals[i] = float64(r.Intn(9)-4) / 4
		}
	}
	x.CopyFromF64(vals)
	return x
}

// TestConvKernelsMatchReference pins ReLU and MaxPool2D, forward and
// backward, in both dtypes to the reference loops above: values bit for
// bit, masks and argmaxes exactly, on inputs salted with NaN, ±0, ±Inf and
// ties. Pools cover K ∈ {2, 3}, stride ∈ {1, 2, 3} and odd and even maps.
func TestConvKernelsMatchReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) { checkConvKernels[float64](t, tensor.Float64) })
	t.Run("float32", func(t *testing.T) { checkConvKernels[float32](t, tensor.Float32) })
}

func checkConvKernels[T tensor.Elem](t *testing.T, dt tensor.DType) {
	r := rng.New(26)

	x := saltedInput(dt, r, 3, 4, 7, 6)
	g := saltedInput(dt, r, x.Shape()...)
	relu := NewReLU()
	y := elems[T](relu.Forward(x, true))
	dx := elems[T](relu.Backward(g))
	wantY, wantDx := make([]T, x.Len()), make([]T, x.Len())
	wantMask := make([]bool, x.Len())
	reluForwardRef(elems[T](x), wantY, wantMask)
	reluBackwardRef(elems[T](g), wantDx, wantMask)
	if i := firstBitDiff(y, wantY); i >= 0 {
		t.Fatalf("ReLU forward elem %d: got %v want %v (input %v)", i, y[i], wantY[i], elems[T](x)[i])
	}
	for i, m := range wantMask {
		if relu.mask[i] != m {
			t.Fatalf("ReLU mask elem %d: got %v want %v (input %v)", i, relu.mask[i], m, elems[T](x)[i])
		}
	}
	if i := firstBitDiff(dx, wantDx); i >= 0 {
		t.Fatalf("ReLU backward elem %d: got %v want %v", i, dx[i], wantDx[i])
	}

	for _, k := range []int{2, 3} {
		for _, stride := range []int{1, 2, 3} {
			for _, hw := range [][2]int{{8, 8}, {7, 7}, {7, 10}} {
				name := fmt.Sprintf("k%d_s%d_%dx%d", k, stride, hw[0], hw[1])
				b, c, h, w := 2, 3, hw[0], hw[1]
				outH, outW := tensor.ConvOutSize(h, k, stride, 0), tensor.ConvOutSize(w, k, stride, 0)
				x := saltedInput(dt, r, b, c, h, w)
				pool := NewMaxPool2D(k, stride)
				out := elems[T](pool.Forward(x, true))
				want := make([]T, b*c*outH*outW)
				wantArg := make([]int, len(want))
				maxPoolForwardRef(elems[T](x), want, wantArg, b, c, h, w, outH, outW, k, stride)
				if i := firstBitDiff(out, want); i >= 0 {
					t.Fatalf("%s MaxPool forward elem %d: got %v want %v", name, i, out[i], want[i])
				}
				for i, a := range wantArg {
					if pool.argmax[i] != a {
						t.Fatalf("%s MaxPool argmax %d: got %d want %d", name, i, pool.argmax[i], a)
					}
				}
				for _, a := range wantArg {
					if a < 0 {
						t.Fatalf("%s: a window of the salted input has no winner; reseed so backward runs", name)
					}
				}
				g := saltedInput(dt, r, b, c, outH, outW)
				dx := elems[T](pool.Backward(g))
				wantDx := make([]T, x.Len())
				maxPoolBackwardRef(wantDx, elems[T](g), wantArg)
				if i := firstBitDiff(dx, wantDx); i >= 0 {
					t.Fatalf("%s MaxPool backward elem %d: got %v want %v", name, i, dx[i], wantDx[i])
				}
			}
		}
	}

	// A window with no element above -Inf (all NaN, or all -Inf) keeps
	// (-Inf, -1), whatever its position in the scan.
	for _, fill := range []float64{math.NaN(), math.Inf(-1)} {
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = fill
		}
		vals[15] = 1 // the last window has a winner
		x := tensor.NewOf(dt, 1, 1, 4, 4)
		x.CopyFromF64(vals)
		pool := NewMaxPool2D(2, 2)
		out := elems[T](pool.Forward(x, true))
		for i := 0; i < 3; i++ {
			if !math.IsInf(float64(out[i]), -1) || pool.argmax[i] != -1 {
				t.Fatalf("window %d of a %v map: got (%v, %d), want (-Inf, -1)", i, fill, out[i], pool.argmax[i])
			}
		}
		if out[3] != 1 || pool.argmax[3] != 15 {
			t.Fatalf("last window of a %v map: got (%v, %d), want (1, 15)", fill, out[3], pool.argmax[3])
		}
	}
}
