package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// Float32 parity helpers and tests: the float32 kernels must match a
// float64 reference within float32 accumulation error. The GEMM grid
// itself is TestGEMMParity (parity_test.go), one table for both dtypes.

// parityEq32 allows float32 rounding accumulated over k products.
func parityEq32(got, want float64, k int) bool {
	tol := 1e-5 * float64(k+1) * (1 + math.Abs(want))
	return math.Abs(got-want) <= tol
}

func fillDet32(x *Tensor, seed int) {
	d := x.Data32()
	for i := range d {
		d[i] = float32((i*31+seed*17)%19)/7 - 1.3
	}
}

// toF64 widens a float32 tensor for reference computation.
func toF64(x *Tensor) *Tensor {
	out := NewOf(Float64, x.Shape()...)
	convertSlice(out.Data(), x.Data32())
	return out
}

func checkTensorParity32(t *testing.T, name string, got, want *Tensor, k int) {
	t.Helper()
	gd, wd := got.Data32(), want.Data()
	for i := range gd {
		if !parityEq32(float64(gd[i]), wd[i], k) {
			t.Fatalf("%s: elem %d got %v want %v", name, i, gd[i], wd[i])
		}
	}
}

func TestIm2ColCol2Im32Parity(t *testing.T) {
	cases := []struct {
		b, c, h, w, kh, kw, stride, pad int
	}{
		{1, 1, 5, 5, 3, 3, 1, 1},
		{2, 3, 7, 5, 3, 3, 2, 1},
		{3, 2, 9, 9, 5, 5, 1, 2},
		{2, 2, 5, 7, 1, 3, 2, 1},
		// Every window-row width branch, as in TestIm2ColCol2ImParity.
		{2, 3, 16, 16, 5, 5, 1, 0},
		{2, 6, 6, 6, 5, 5, 1, 0},
		{2, 2, 7, 9, 3, 3, 2, 0},
		{2, 3, 9, 8, 4, 4, 1, 1},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("b%d_c%d_%dx%d_k%dx%d_s%d_p%d", tc.b, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		x := NewOf(Float32, tc.b, tc.c, tc.h, tc.w)
		fillDet32(x, tc.b+tc.c+tc.h)
		outH := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
		outW := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
		cols := Compute{}.Im2ColInto(NewOf(Float32, tc.b*outH*outW, tc.c*tc.kh*tc.kw), x, tc.kh, tc.kw, tc.stride, tc.pad)
		wantCols := naiveIm2Col(toF64(x), tc.kh, tc.kw, tc.stride, tc.pad)
		checkTensorParity32(t, "Im2Col32 "+name, cols, wantCols, 0)

		g := NewOf(Float32, cols.Dim(0), cols.Dim(1))
		fillDet32(g, 3*tc.kh+tc.kw)
		img := Compute{}.Col2ImInto(NewOf(Float32, tc.b, tc.c, tc.h, tc.w), g, tc.kh, tc.kw, tc.stride, tc.pad)
		wantImg := naiveCol2Im(toF64(g), tc.b, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		checkTensorParity32(t, "Col2Im32 "+name, img, wantImg, tc.kh*tc.kw)
	}
}

func TestElementwise32(t *testing.T) {
	a := NewOf(Float32, 3, 5)
	b := NewOf(Float32, 3, 5)
	fillDet32(a, 1)
	fillDet32(b, 2)
	sum := NewOf(Float32, 3, 5)
	AddInto(sum, a, b)
	for i := range sum.Data32() {
		want := a.Data32()[i] + b.Data32()[i]
		if sum.Data32()[i] != want {
			t.Fatalf("Add32 elem %d: %v want %v", i, sum.Data32()[i], want)
		}
	}
	d := NewOf(Float32, 3, 5)
	copy(d.Data32(), a.Data32())
	d.AddScaled(0.5, b)
	for i := range d.Data32() {
		want := a.Data32()[i] + 0.5*b.Data32()[i]
		if math.Abs(float64(d.Data32()[i]-want)) > 1e-6 {
			t.Fatalf("AddScaled32 elem %d: %v want %v", i, d.Data32()[i], want)
		}
	}
	// Round-trip through the float64 state boundary.
	flat := make([]float64, a.Len())
	a.CopyToF64(flat)
	back := NewOf(Float32, 3, 5)
	back.CopyFromF64(flat)
	for i := range back.Data32() {
		if back.Data32()[i] != a.Data32()[i] {
			t.Fatal("CopyToF64/CopyFromF64 round trip changed values")
		}
	}
}

func TestEnsureOfDTypeSwitch(t *testing.T) {
	f64 := Ensure(nil, 4, 4)
	if f64.DType() != Float64 {
		t.Fatalf("Ensure(nil) dtype %v", f64.DType())
	}
	f32 := EnsureOf(Float32, f64, 4, 4)
	if f32 == f64 || f32.DType() != Float32 {
		t.Fatal("EnsureOf must reallocate on dtype switch")
	}
	again := EnsureOf(Float32, f32, 2, 3)
	if again != f32 {
		t.Fatal("EnsureOf should reuse matching-dtype capacity")
	}
	if kept := Ensure(f32, 4, 2); kept != f32 || kept.DType() != Float32 {
		t.Fatal("Ensure must preserve the tensor's dtype")
	}
}

// TestPool32ConcurrentClients exercises the float32 buckets of the shared
// pool the way concurrent float32 clients do; under -race this is the f32
// pool's race-detector test.
func TestPool32ConcurrentClients(t *testing.T) {
	pool := &Pool{}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := NewWorkspace(pool)
			for round := 0; round < 50; round++ {
				a := ws.GetRaw(Float32, 64, 3+g)
				b := ws.GetRaw(Float32, 128)
				c := ws.GetRaw(Float64, 32) // interleave f64 to cover both bucket sets
				mark := float64(g*1000 + round)
				a.Fill(mark)
				b.Fill(-mark)
				c.Fill(mark)
				for _, v := range a.Data32() {
					if v != float32(mark) {
						errs <- fmt.Errorf("goroutine %d round %d: f32 workspace not isolated", g, round)
						return
					}
				}
				for _, v := range b.Data32() {
					if v != float32(-mark) {
						errs <- fmt.Errorf("goroutine %d round %d: f32 workspace not isolated", g, round)
						return
					}
				}
				ws.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestComputeBudgetParity checks that an explicit Compute budget changes
// only scheduling, never results: every worker count produces bitwise the
// same output as the serial path, for all three GEMM variants of both
// dtypes, on a shape above parallelThreshold with several mc row blocks
// (the unit of fan-out), several kc k-blocks (store then accumulate) and
// edge tiles on both axes. The transport-parity pins of fl and simnet rest
// on this: a party's update may not depend on the budget it trained under.
func TestComputeBudgetParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m, k, n := 4*mc+9, 2*kc+88, 130
	if m*n < parallelThreshold {
		t.Fatalf("shape %dx%d is below parallelThreshold", m, n)
	}
	variants := []struct {
		name   string
		ta, tb bool
		run    func(Compute, *Tensor, *Tensor, *Tensor)
	}{
		{"MatMul", false, false, Compute.MatMulInto},
		{"TransA", true, false, Compute.MatMulTransAInto},
		{"TransB", false, true, Compute.MatMulTransBInto},
	}
	for _, dt := range []DType{Float64, Float32} {
		for _, v := range variants {
			a, b := NewOf(dt, m, k), NewOf(dt, k, n)
			if v.ta {
				a = NewOf(dt, k, m)
			}
			if v.tb {
				b = NewOf(dt, n, k)
			}
			fillDetOf(a, 3)
			fillDetOf(b, 5)
			ref := NewOf(dt, m, n)
			v.run(Compute{Workers: 1}, ref, a, b)
			for _, w := range []int{0, 2, 3, 4, 7} {
				got := NewOf(dt, m, n)
				v.run(Compute{Workers: w}, got, a, b)
				if i := firstDiff(got, ref); i >= 0 {
					t.Fatalf("%v %s workers=%d: elem %d differs from the serial result", dt, v.name, w, i)
				}
			}
		}
	}
}

// firstDiff returns the index of the first element at which two tensors of
// one dtype and shape differ, or -1 when they are bitwise equal.
func firstDiff(a, b *Tensor) int {
	for i := range a.data32 {
		if a.data32[i] != b.data32[i] {
			return i
		}
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return i
		}
	}
	return -1
}
