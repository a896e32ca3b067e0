package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// Parity tests: the blocked/parallel/FMA kernels must match obviously
// correct reference implementations across awkward shapes, in both the
// assembly and pure-Go paths.

func parityEq(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*(1+math.Abs(want))
}

// withBothKernelPaths runs f with the FMA microkernels (both dtypes share
// the gate) disabled and, when the CPU supports them, enabled as well.
func withBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	saved := useFMA
	defer func() { useFMA = saved }()
	useFMA = false
	t.Run("generic", f)
	if saved {
		useFMA = true
		t.Run("fma", f)
	}
}

func fillDet(x *Tensor, seed int) {
	d := x.Data()
	for i := range d {
		d[i] = float64((i*31+seed*17)%19)/7 - 1.3
	}
}

// gemmShape is one product dst(m,n) = op(a)(m,k) @ op(b)(k,n).
type gemmShape struct{ m, k, n int }

// parityShapes crosses every edge the packed-panel driver has, for both
// dtypes: m across the 4-row tile and the 128-row block; n across the
// narrow and full tile of each dtype (4/8 for float64, 8/16 for float32)
// and one past a panel; and k across the 256-step k-block.
func parityShapes() []gemmShape {
	var out []gemmShape
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 127, 128, 129} {
		for _, n := range []int{1, 6, 8, 9, 17} {
			for _, k := range []int{1, 75, 257} {
				out = append(out, gemmShape{m, k, n})
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33} {
		for _, m := range []int{1, 4, 13} {
			for _, k := range []int{1, 257} {
				out = append(out, gemmShape{m, k, n})
			}
		}
	}
	for _, k := range []int{1, 255, 256, 257, 513} {
		out = append(out, gemmShape{5, k, 7}, gemmShape{13, k, 17}, gemmShape{129, k, 33})
	}
	return out
}

// fillDetOf is fillDet for either dtype.
func fillDetOf(x *Tensor, seed int) {
	if x.dt == Float32 {
		fillDet32(x, seed)
		return
	}
	fillDet(x, seed)
}

// checkGEMMParity compares got against the naive float64 product of the
// (widened) operands: 1e-12 relative for float64 — FMA contracts one
// rounding per multiply-add and the packed driver reorders the sum, which
// is also why the two kernel paths agree only to the last place — and
// float32 rounding accumulated over k products for float32.
func checkGEMMParity(t *testing.T, name string, got, a, b *Tensor, k int) {
	t.Helper()
	if got.dt == Float32 {
		checkTensorParity32(t, name, got, naiveMatMul(toF64(a), toF64(b)), k)
		return
	}
	checkTensorParity(t, name, got, naiveMatMul(a, b))
}

// TestGEMMParity drives all three GEMM variants of both dtypes through
// parityShapes on both kernel paths. dst starts as garbage: store mode must
// overwrite it without a pre-zero.
func TestGEMMParity(t *testing.T) {
	withBothKernelPaths(t, func(t *testing.T) {
		for _, dt := range []DType{Float64, Float32} {
			for _, s := range parityShapes() {
				m, k, n := s.m, s.k, s.n
				a, b := NewOf(dt, m, k), NewOf(dt, k, n)
				fillDetOf(a, m+2*k+3*n)
				fillDetOf(b, n+5*k)
				got := NewOf(dt, m, n)
				got.Fill(7)
				Compute{}.MatMulInto(got, a, b)
				checkGEMMParity(t, fmt.Sprintf("%v MatMul %dx%dx%d", dt, m, k, n), got, a, b, k)

				at := NewOf(dt, k, m) // aᵀ operand
				fillDetOf(at, 7*m+k)
				got.Fill(7)
				Compute{}.MatMulTransAInto(got, at, b)
				checkGEMMParity(t, fmt.Sprintf("%v TransA %dx%dx%d", dt, m, k, n), got, transpose(at), b, k)

				bt := NewOf(dt, n, k) // bᵀ operand
				fillDetOf(bt, 11*n+k)
				got.Fill(7)
				Compute{}.MatMulTransBInto(got, a, bt)
				checkGEMMParity(t, fmt.Sprintf("%v TransB %dx%dx%d", dt, m, k, n), got, a, transpose(bt), k)
			}
		}
	})
}

// TestGEMMZeroK pins the driver's k = 0 contract: an empty sum is zero,
// written over whatever dst held. Tensors cannot have a zero dimension, so
// this calls the driver directly.
func TestGEMMZeroK(t *testing.T) {
	d64 := []float64{1, 2, 3, 4, 5, 6}
	gemm(&kernels64, 1, d64, nil, nil, 2, 3, 0, 0, 1, 3, 1)
	d32 := []float32{1, 2, 3, 4, 5, 6}
	gemm(&kernels32, 1, d32, nil, nil, 2, 3, 0, 0, 1, 3, 1)
	for i := range d64 {
		if d64[i] != 0 || d32[i] != 0 {
			t.Fatalf("k=0 product left dst[%d] = %v / %v", i, d64[i], d32[i])
		}
	}
}

// transpose returns aᵀ for a 2-D tensor of either dtype: the oracle
// operand for TestGEMMParity's TransA and TransB rows.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := NewOf(a.dt, n, m)
	transposeSlice(out.data, a.data, m, n)
	transposeSlice(out.data32, a.data32, m, n)
	return out
}

// transposeSlice writes the (n,m) transpose of the row-major (m,n) a into
// dst; an inactive dtype's empty slices make it a no-op.
func transposeSlice[T Elem](dst, a []T, m, n int) {
	for i, v := range a {
		dst[(i%n)*m+i/n] = v
	}
}

func checkTensorParity(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if !parityEq(gd[i], wd[i]) {
			t.Fatalf("%s: elem %d got %v want %v", name, i, gd[i], wd[i])
		}
	}
}

// naiveIm2Col builds the column matrix with straightforward indexing.
func naiveIm2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	out := NewOf(Float64, b*outH*outW, c*kh*kw)
	xd, od := x.Data(), out.Data()
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				r := (bi*outH+oy)*outW + ox
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							var v float64
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								v = xd[((bi*c+ci)*h+iy)*w+ix]
							}
							od[r*c*kh*kw+(ci*kh+ky)*kw+kx] = v
						}
					}
				}
			}
		}
	}
	return out
}

// naiveCol2Im scatters with straightforward indexing.
func naiveCol2Im(cols *Tensor, b, c, h, w, kh, kw, stride, pad int) *Tensor {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	out := NewOf(Float64, b, c, h, w)
	od, cd := out.Data(), cols.Data()
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				r := (bi*outH+oy)*outW + ox
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							od[((bi*c+ci)*h+iy)*w+ix] += cd[r*c*kh*kw+(ci*kh+ky)*kw+kx]
						}
					}
				}
			}
		}
	}
	return out
}

func TestIm2ColCol2ImParity(t *testing.T) {
	cases := []struct {
		b, c, h, w, kh, kw, stride, pad int
	}{
		{1, 1, 5, 5, 3, 3, 1, 0},
		{1, 1, 5, 5, 3, 3, 1, 1},
		{2, 3, 7, 5, 3, 3, 1, 1},
		{2, 3, 7, 5, 3, 3, 2, 1},
		{3, 2, 9, 9, 5, 5, 1, 2},
		{3, 2, 9, 9, 5, 5, 2, 2},
		{1, 4, 8, 8, 2, 2, 2, 0},
		{4, 1, 6, 6, 3, 1, 1, 0},
		{2, 2, 5, 7, 1, 3, 2, 1},
		// The CNN's two convolutions (kw = 5, no padding: every window row
		// takes the constant-width move), and unpadded kw = 3 and padded
		// kw = 4 cases, which take the copy fallback.
		{2, 3, 16, 16, 5, 5, 1, 0},
		{2, 6, 6, 6, 5, 5, 1, 0},
		{2, 2, 7, 9, 3, 3, 2, 0},
		{2, 3, 9, 8, 4, 4, 1, 1},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("b%d_c%d_%dx%d_k%dx%d_s%d_p%d", tc.b, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad)
		x := NewOf(Float64, tc.b, tc.c, tc.h, tc.w)
		fillDet(x, tc.b+tc.c+tc.h)
		outH := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
		outW := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)

		cols := NewOf(Float64, tc.b*outH*outW, tc.c*tc.kh*tc.kw)
		Compute{}.Im2ColInto(cols, x, tc.kh, tc.kw, tc.stride, tc.pad)
		checkTensorParity(t, "Im2ColInto "+name, cols, naiveIm2Col(x, tc.kh, tc.kw, tc.stride, tc.pad))

		g := NewOf(Float64, cols.Dim(0), cols.Dim(1))
		fillDet(g, 3*tc.kh+tc.kw)
		img := NewOf(Float64, tc.b, tc.c, tc.h, tc.w)
		Compute{}.Col2ImInto(img, g, tc.kh, tc.kw, tc.stride, tc.pad)
		checkTensorParity(t, "Col2ImInto "+name, img, naiveCol2Im(g, tc.b, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad))
	}
}

func TestEnsureReuseAndGrowth(t *testing.T) {
	x := Ensure(nil, 4, 4)
	if x.Len() != 16 {
		t.Fatalf("Ensure(nil) len %d", x.Len())
	}
	x.Fill(7)
	y := Ensure(x, 2, 3)
	if y != x {
		t.Fatal("Ensure should reuse in-capacity tensors")
	}
	if y.Rank() != 2 || y.Dim(0) != 2 || y.Dim(1) != 3 {
		t.Fatalf("Ensure shape %v", y.Shape())
	}
	z := Ensure(y, 8, 8)
	if z == y {
		t.Fatal("Ensure must allocate when capacity is insufficient")
	}
}

// TestPoolSizeClasses pins the pool's footprint contract for both dtypes:
// a pooled array never exceeds its request by more than a quarter once
// past the fine-class threshold (an eighth, with the classes as built),
// never exceeds the next power of two anywhere, Put→Get of the same size
// hands the same array back, and Put still classifies by capacity alone —
// a New tensor of a non-class size is dropped, never resliced.
func TestPoolSizeClasses(t *testing.T) {
	capOf := func(x *Tensor) int {
		if x.DType() == Float32 {
			return cap(x.data32)
		}
		return cap(x.data)
	}
	sizes := []int{1, 2, 3, 1000, 1 << poolFineLog, 1<<poolFineLog + 1, 100000, 262144, 262145, 262858,
		294912, 294913, 1<<20 - 1, 1 << 20, 1<<20 + 1, 3_000_001}
	for _, dt := range []DType{Float64, Float32} {
		p := &Pool{}
		for _, n := range sizes {
			x := p.GetRaw(dt, n)
			c := capOf(x)
			if x.Len() != n || c < n {
				t.Fatalf("%v n=%d: len %d cap %d", dt, n, x.Len(), c)
			}
			if n > 1 && c >= 2*n {
				t.Fatalf("%v n=%d: cap %d is a whole octave above the request", dt, n, c)
			}
			if n > 1<<poolFineLog && 4*c > 5*n {
				t.Fatalf("%v n=%d: cap %d exceeds 1.25x the request", dt, n, c)
			}
			if idx, size := classFor(c); size != c || idx < 0 {
				t.Fatalf("%v n=%d: cap %d is not its own class (%d, %d)", dt, n, c, idx, size)
			}
			// sync.Pool may drop an item (always possible, and deliberate
			// under -race), so reuse is demanded of some attempt, not each.
			reused := false
			for try := 0; try < 64 && !reused; try++ {
				p.Put(x)
				y := p.GetRaw(dt, n)
				reused = y == x
				x = y
			}
			if !reused {
				t.Fatalf("%v n=%d: Put then Get never reused the array", dt, n)
			}
		}
		// 262858 is no class capacity, so this New tensor must be dropped:
		// a Get of its size class may not come back resliced from it.
		fresh := NewOf(dt, 262858)
		p.Put(fresh)
		if got := p.GetRaw(dt, 262858); got == fresh || capOf(got) == 262858 {
			t.Fatalf("%v: Put accepted a New tensor of capacity 262858", dt)
		}
	}
	if idx, _ := classFor(1<<maxPoolLog + 1); idx != -1 {
		t.Fatalf("a request above 2^%d was pooled (class %d)", maxPoolLog, idx)
	}
	if idx, size := classFor(1 << maxPoolLog); idx != poolClasses-1 || size != 1<<maxPoolLog {
		t.Fatalf("largest class is (%d, %d), want (%d, %d)", idx, size, poolClasses-1, 1<<maxPoolLog)
	}
}

// TestWorkspaceRelease pins that Release hands every tensor back to the
// pool: a later GetRaw of the same size gets the released array.
func TestWorkspaceRelease(t *testing.T) {
	ws := NewWorkspace(&Pool{})
	x := ws.GetRaw(Float64, 64)
	// sync.Pool may drop an item, so reuse is demanded of some attempt.
	reused := false
	for try := 0; try < 64 && !reused; try++ {
		ws.Release()
		if len(ws.taken) != 0 {
			t.Fatalf("Release kept %d tensors", len(ws.taken))
		}
		y := ws.GetRaw(Float64, 64)
		reused = y == x
		x = y
	}
	if !reused {
		t.Fatal("Release never returned the tensor to the pool")
	}
	ws.Release()
}

// TestPoolConcurrentClients exercises the shared pool the way concurrent
// federated clients do: many goroutines grabbing round workspaces,
// writing distinct values, verifying isolation, and releasing. Run under
// -race this doubles as the pool's race-detector test.
func TestPoolConcurrentClients(t *testing.T) {
	pool := &Pool{}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := NewWorkspace(pool)
			for round := 0; round < 50; round++ {
				a := ws.GetRaw(Float64, 64, 3+g)
				b := ws.GetRaw(Float64, 128)
				mark := float64(g*1000 + round)
				a.Fill(mark)
				b.Fill(-mark)
				for _, v := range a.Data() {
					if v != mark {
						errs <- fmt.Errorf("goroutine %d round %d: workspace not isolated", g, round)
						return
					}
				}
				for _, v := range b.Data() {
					if v != -mark {
						errs <- fmt.Errorf("goroutine %d round %d: workspace not isolated", g, round)
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
