package tensor

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewZeroed(t *testing.T) {
	x := NewOf(Float64, 2, 3)
	if x.Len() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("unexpected metadata: len=%d rank=%d", x.Len(), x.Rank())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("NewOf tensor not zeroed")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	NewOf(Float64, 2, 0)
}

func TestAddInto(t *testing.T) {
	a := ViewInto(nil, []float64{1, 2, 3}, 3)
	b := ViewInto(nil, []float64{10, 20, 30}, 3)
	AddInto(a, a, b) // dst may alias an operand
	if got := a.Data(); got[0] != 11 || got[2] != 33 {
		t.Fatalf("AddInto: %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	AddInto(NewOf(Float64, 2), NewOf(Float64, 2), NewOf(Float64, 3))
}

func TestAddScaled(t *testing.T) {
	a := ViewInto(nil, []float64{3, 6}, 2)
	b := ViewInto(nil, []float64{10, 10}, 2)
	a.AddScaled(0.5, b)
	if a.Data()[0] != 8 || a.Data()[1] != 11 {
		t.Fatalf("AddScaled: %v", a.Data())
	}
}

func TestDot(t *testing.T) {
	a := ViewInto(nil, []float64{1, 2, 3}, 3)
	b := ViewInto(nil, []float64{4, 5, 6}, 3)
	if !almostEq(Dot(a, b), 32) {
		t.Fatalf("Dot: %v", Dot(a, b))
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	x := ViewInto(nil, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := ViewInto(nil, []float64{10, 20, 30}, 3)
	x.AddRowVector(v)
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if x.Data()[i] != w {
			t.Fatalf("AddRowVector: %v", x.Data())
		}
	}
	sums := ViewInto(nil, []float64{-7, math.NaN(), 1e300}, 3) // overwritten, not added to
	x.ColSumsInto(sums)
	if sums.Data()[0] != 25 || sums.Data()[1] != 47 || sums.Data()[2] != 69 {
		t.Fatalf("ColSums: %v", sums.Data())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := ViewInto(nil, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := ViewInto(nil, []float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data()[i], w) {
			t.Fatalf("MatMul: got %v want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 5
	id := NewOf(Float64, n, n)
	for i := 0; i < n; i++ {
		id.Data()[i*n+i] = 1
	}
	a := NewOf(Float64, n, n)
	for i := range a.Data() {
		a.Data()[i] = float64(i)
	}
	c := matMul(a, id)
	for i := range a.Data() {
		if !almostEq(c.Data()[i], a.Data()[i]) {
			t.Fatal("A @ I != A")
		}
	}
}

func TestMatMulDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dim mismatch")
		}
	}()
	matMul(NewOf(Float64, 2, 3), NewOf(Float64, 4, 2))
}

// matMul returns a @ b under the default compute budget.
func matMul(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.shape[0], b.shape[1])
	Compute{}.MatMulInto(out, a, b)
	return out
}

// naiveMatMul is an obviously-correct reference implementation.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := NewOf(Float64, m, n)
	ad, bd := a.Data(), b.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[p*n+j]
			}
			out.Data()[i*n+j] = s
		}
	}
	return out
}

func TestMatMulAgainstNaiveProperty(t *testing.T) {
	seed := uint64(1)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(int64(seed>>33))/float64(1<<30) - 1
	}
	err := quick.Check(func(mr, kr, nr uint8) bool {
		m, k, n := int(mr%7)+1, int(kr%7)+1, int(nr%7)+1
		a, b := NewOf(Float64, m, k), NewOf(Float64, k, n)
		for i := range a.Data() {
			a.Data()[i] = next()
		}
		for i := range b.Data() {
			b.Data()[i] = next()
		}
		got, want := matMul(a, b), naiveMatMul(a, b)
		for i := range got.Data() {
			if math.Abs(got.Data()[i]-want.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to trip the parallel path (three mc blocks), with the
	// cores to fan out across even on a one-CPU box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m, k, n := 300, 64, 400
	a, b := NewOf(Float64, m, k), NewOf(Float64, k, n)
	for i := range a.Data() {
		a.Data()[i] = float64(i%13) - 6
	}
	for i := range b.Data() {
		b.Data()[i] = float64(i%7) - 3
	}
	got := NewOf(Float64, m, n)
	Compute{Workers: 4}.MatMulInto(got, a, b)
	// Serial reference on a few spot rows to keep the test fast.
	for _, i := range []int{0, m / 2, m - 1} {
		for _, j := range []int{0, n / 2, n - 1} {
			var s float64
			for p := 0; p < k; p++ {
				s += a.Data()[i*k+p] * b.Data()[p*n+j]
			}
			if g := got.Data()[i*n+j]; !almostEq(g, s) {
				t.Fatalf("parallel matmul wrong at (%d,%d): got %v want %v", i, j, g, s)
			}
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	a := ViewInto(nil, []float64{1, 2, 3, 4, 5, 6}, 3, 2) // aT is 2x3
	b := ViewInto(nil, []float64{1, 0, 0, 1, 1, 1}, 3, 2)
	got := NewOf(Float64, 2, 2)
	Compute{}.MatMulTransAInto(got, a, b)
	want := matMul(transpose(a), b)
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i]) {
			t.Fatalf("MatMulTransA: got %v want %v", got.Data(), want.Data())
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	a := ViewInto(nil, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := ViewInto(nil, []float64{1, 1, 0, 0, 2, 1, 3, 0, 1, 1, 1, 1}, 4, 3) // bT is 3x4
	got := NewOf(Float64, 2, 4)
	Compute{}.MatMulTransBInto(got, a, b)
	want := matMul(a, transpose(b))
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i]) {
			t.Fatalf("MatMulTransB: got %v want %v", got.Data(), want.Data())
		}
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(16, 5, 1, 0) != 12 {
		t.Fatal("valid conv size wrong")
	}
	if ConvOutSize(16, 3, 1, 1) != 16 {
		t.Fatal("same-pad conv size wrong")
	}
	if ConvOutSize(12, 2, 2, 0) != 6 {
		t.Fatal("strided pool size wrong")
	}
}

func TestIm2ColSingle(t *testing.T) {
	// 1 image, 1 channel, 3x3, kernel 2x2 stride 1 -> 4 patches of 4.
	x := ViewInto(nil, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cols := Compute{}.Im2ColInto(NewOf(Float64, 4, 4), x, 2, 2, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	wantRow0 := []float64{1, 2, 4, 5}
	wantRow3 := []float64{5, 6, 8, 9}
	for i, w := range wantRow0 {
		if cols.Data()[i] != w {
			t.Fatalf("row0: %v", cols.Data()[:4])
		}
	}
	for i, w := range wantRow3 {
		if cols.Data()[12+i] != w {
			t.Fatalf("row3: %v", cols.Data()[12:16])
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := ViewInto(nil, []float64{1, 2, 3, 4}, 1, 1, 2, 2)
	cols := Compute{}.Im2ColInto(NewOf(Float64, 4, 9), x, 3, 3, 1, 1) // same-pad: 4 output positions
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// Top-left patch: padding everywhere except bottom-right 2x2 block.
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, w := range want {
		if cols.Data()[i] != w {
			t.Fatalf("padded patch: got %v want %v", cols.Data()[:9], want)
		}
	}
}

func TestIm2ColMultiChannelBatch(t *testing.T) {
	x := NewOf(Float64, 2, 3, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	cols := Compute{}.Im2ColInto(NewOf(Float64, 2*2*2, 3*2*2), x, 2, 2, 2, 0)
	if cols.Dim(0) != 2*2*2 || cols.Dim(1) != 3*2*2 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// First patch of second image, first channel starts at offset 48.
	if got := cols.Data()[4*12]; got != 48 {
		t.Fatalf("batch offset wrong: %v", got)
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> must hold for the adjoint pair.
	b, c, h, w, kh, kw, stride, pad := 2, 2, 5, 5, 3, 3, 1, 1
	x := NewOf(Float64, b, c, h, w)
	for i := range x.Data() {
		x.Data()[i] = float64((i*7)%11) - 5
	}
	cols := Compute{}.Im2ColInto(NewOf(Float64, b*h*w, c*kh*kw), x, kh, kw, stride, pad)
	y := NewOf(Float64, cols.Dim(0), cols.Dim(1))
	for i := range y.Data() {
		y.Data()[i] = float64((i*3)%5) - 2
	}
	lhs := Dot(cols, y)
	back := Compute{}.Col2ImInto(NewOf(Float64, b, c, h, w), y, kh, kw, stride, pad)
	rhs := Dot(x, back)
	if math.Abs(lhs-rhs) > 1e-6 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestCol2ImShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong cols shape")
		}
	}()
	Compute{}.Col2ImInto(NewOf(Float64, 1, 1, 4, 4), NewOf(Float64, 3, 3), 2, 2, 1, 0)
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestViewIntoWrapsData(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x := ViewInto(nil, d, 2, 3)
	if x.DType() != Float64 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("view metadata: dtype %v shape %v", x.DType(), x.Shape())
	}
	d[4] = 50 // row 1, column 1
	if x.Data()[1*3+1] != 50 {
		t.Fatal("ViewInto copied the slice instead of wrapping it")
	}
	// Re-pointing an existing header, even a Float32 one, makes it a
	// Float64 view of the new slice without allocating.
	y := NewOf(Float32, 4)
	e := []float64{7, 8, 9}
	if allocs := testing.AllocsPerRun(10, func() { ViewInto(y, e, 3) }); allocs != 0 {
		t.Fatalf("ViewInto on an existing header allocated %v times", allocs)
	}
	if y.DType() != Float64 || y.Len() != 3 || &y.Data()[0] != &e[0] {
		t.Fatalf("re-pointed view: dtype %v len %d", y.DType(), y.Len())
	}
}

func TestViewIntoLengthMismatch(t *testing.T) {
	mustPanic(t, "ViewInto 3 elems as 2x2", func() { ViewInto(nil, []float64{1, 2, 3}, 2, 2) })
}

func TestReshapeSharesData(t *testing.T) {
	x := ViewInto(nil, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	d := x.Data()
	if r := x.ReshapeInPlace(3, 2); r != x || x.Dim(0) != 3 || x.Dim(1) != 2 {
		t.Fatalf("ReshapeInPlace shape %v", x.Shape())
	}
	x.Data()[5] = 60
	if &x.Data()[0] != &d[0] || d[5] != 60 {
		t.Fatal("ReshapeInPlace must share the backing data")
	}
	if allocs := testing.AllocsPerRun(10, func() { x.ReshapeInPlace(6).ReshapeInPlace(2, 3) }); allocs != 0 {
		t.Fatalf("ReshapeInPlace allocated %v times", allocs)
	}
}

func TestReshapeInPlaceLengthMismatch(t *testing.T) {
	mustPanic(t, "6 elems reshaped to 4", func() { NewOf(Float64, 2, 3).ReshapeInPlace(2, 2) })
}

func TestDataAccessorDTypePanics(t *testing.T) {
	mustPanic(t, "Data() on float32", func() { NewOf(Float32, 2).Data() })
	mustPanic(t, "Data32() on float64", func() { NewOf(Float64, 2).Data32() })
}

func TestMixedDTypePanics(t *testing.T) {
	a, b := NewOf(Float64, 3), NewOf(Float32, 3)
	mustPanic(t, "AddInto", func() { AddInto(a, a, b) })
	mustPanic(t, "AddScaled", func() { a.AddScaled(1, b) })
	mustPanic(t, "Dot", func() { Dot(a, b) })
}

func TestRowVectorShapePanics(t *testing.T) {
	x := NewOf(Float64, 2, 3)
	mustPanic(t, "AddRowVector length", func() { x.AddRowVector(NewOf(Float64, 2)) })
	mustPanic(t, "AddRowVector rank", func() { NewOf(Float64, 6).AddRowVector(NewOf(Float64, 6)) })
	mustPanic(t, "ColSumsInto length", func() { x.ColSumsInto(NewOf(Float64, 2)) })
}

func TestFillAndZero(t *testing.T) {
	for _, dt := range []DType{Float64, Float32} {
		x := NewOf(dt, 5)
		x.Fill(2.5)
		got := make([]float64, x.Len())
		x.CopyToF64(got)
		for _, v := range got {
			if v != 2.5 {
				t.Fatalf("%v Fill: %v", dt, got)
			}
		}
		x.Zero()
		x.CopyToF64(got)
		for _, v := range got {
			if v != 0 {
				t.Fatalf("%v Zero: %v", dt, got)
			}
		}
	}
}

func TestCopyF64RoundTrip(t *testing.T) {
	src := []float64{1, 0.1, -3, 1e-3}
	for _, dt := range []DType{Float64, Float32} {
		x := NewOf(dt, 2, 2)
		x.CopyFromF64(src)
		got := make([]float64, x.Len())
		x.CopyToF64(got)
		for i, v := range src {
			want := v
			if dt == Float32 {
				want = float64(float32(v)) // narrowed on the way in
			}
			if got[i] != want {
				t.Fatalf("%v round trip: got %v want %v", dt, got, src)
			}
		}
		// Both directions copy: neither slice aliases the tensor.
		got[0], src[0] = 100, 200
		x.CopyToF64(got)
		if got[0] != 1 {
			t.Fatalf("%v tensor changed through a copied slice: %v", dt, got[0])
		}
		src[0] = 1
	}
}

func TestSameShape(t *testing.T) {
	a := NewOf(Float64, 2, 3)
	for _, c := range []struct {
		b    *Tensor
		want bool
	}{
		{NewOf(Float32, 2, 3), true}, // dtype is not part of the shape
		{NewOf(Float64, 3, 2), false},
		{NewOf(Float64, 6), false},
		{NewOf(Float64, 2, 3, 1), false},
	} {
		if got := a.SameShape(c.b); got != c.want {
			t.Fatalf("SameShape(%v, %v) = %v, want %v", a.Shape(), c.b.Shape(), got, c.want)
		}
	}
}

func TestParseDType(t *testing.T) {
	for s, want := range map[string]DType{
		"": Float64, "float64": Float64, "f64": Float64, "fp64": Float64,
		"float32": Float32, "f32": Float32, "fp32": Float32,
	} {
		if got, ok := ParseDType(s); !ok || got != want {
			t.Fatalf("ParseDType(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	for _, dt := range []DType{Float64, Float32} {
		if got, ok := ParseDType(dt.String()); !ok || got != dt {
			t.Fatalf("ParseDType(%v.String()) = %v, %v", dt, got, ok)
		}
	}
	if _, ok := ParseDType("float16"); ok {
		t.Fatal("ParseDType accepted float16")
	}
}

func TestComputeSplit(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := (Compute{}).Resolve(); got != procs {
		t.Fatalf("zero budget resolves to %d, want GOMAXPROCS %d", got, procs)
	}
	if got := (Compute{Workers: procs + 5}).Resolve(); got != procs {
		t.Fatalf("budget above GOMAXPROCS resolves to %d, want %d", got, procs)
	}
	for _, c := range []struct{ workers, n, want int }{
		{8, 2, min(8, procs) / 2},
		{1, 4, 1}, // never below one worker
		{2, 0, min(2, procs)},
	} {
		if got := (Compute{Workers: c.workers}).Split(c.n).Workers; got != max(c.want, 1) {
			t.Fatalf("Compute{%d}.Split(%d) = %d workers, want %d", c.workers, c.n, got, max(c.want, 1))
		}
	}
}

func TestParallelChunksCoverRange(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 10}, {3, 10}, {4, 4}, {8, 3}, {2, 1}} {
		hits := make([]int, c.n)
		parallelChunks(c.workers, c.n, func(c0, c1 int) {
			for i := c0; i < c1; i++ {
				hits[i]++ // chunks are disjoint, so no two bodies write one index
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d n=%d: index %d covered %d times", c.workers, c.n, i, h)
			}
		}
	}
}

func TestMaxAbs(t *testing.T) {
	vector := SetVectorKernels(false)
	defer SetVectorKernels(vector)
	paths := []bool{false}
	if vector {
		paths = append(paths, true)
	}
	for _, on := range paths {
		SetVectorKernels(on)
		if m, ok := MaxAbs(nil); m != 0 || !ok {
			t.Fatalf("vector=%v empty: %v, %v", on, m, ok)
		}
		// Lengths below, at and past one vector block put the extreme in
		// the vector part and in the tail.
		for _, n := range []int{1, quantBlock - 1, quantBlock, 2*quantBlock + 3} {
			for _, at := range []int{0, n - 1} {
				v := make([]float64, n)
				for i := range v {
					v[i] = float64(i%5) - 2
				}
				v[at] = -9
				if m, ok := MaxAbs(v); m != 9 || !ok {
					t.Fatalf("vector=%v n=%d at=%d: MaxAbs %v, %v; want 9, true", on, n, at, m, ok)
				}
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					v[at] = bad
					if _, ok := MaxAbs(v); ok {
						t.Fatalf("vector=%v n=%d at=%d: %v reported finite", on, n, at, bad)
					}
				}
			}
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	a := NewOf(Float64, 64, 64)
	c := NewOf(Float64, 64, 64)
	out := NewOf(Float64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute{}.MatMulInto(out, a, c)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	a := NewOf(Float64, 256, 256)
	c := NewOf(Float64, 256, 256)
	out := NewOf(Float64, 256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute{}.MatMulInto(out, a, c)
	}
}

// benchIm2Col times the CNN's first convolution's im2col (a batch of 32
// 3×16×16 images, 5×5 kernel, no padding) on one worker, so it times the
// kernel rather than the fan-out.
func benchIm2Col(b *testing.B, dt DType) {
	x := NewOf(dt, 32, 3, 16, 16)
	fillDetOf(x, 1)
	dst := NewOf(dt, 32*12*12, 3*5*5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute{Workers: 1}.Im2ColInto(dst, x, 5, 5, 1, 0)
	}
}

func BenchmarkIm2Col(b *testing.B)   { benchIm2Col(b, Float64) }
func BenchmarkIm2Col32(b *testing.B) { benchIm2Col(b, Float32) }
