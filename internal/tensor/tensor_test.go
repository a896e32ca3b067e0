package tensor

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewZeroed(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("unexpected metadata: len=%d rank=%d", x.Len(), x.Rank())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatal("row-major indexing broken")
	}
	x.Set(9, 1, 1)
	if x.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSliceLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	c := x.Clone()
	c.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data()[0] = 7
	if x.At(0, 0) != 7 {
		t.Fatal("Reshape should share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	x.Reshape(3)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := Add(a, b).Data(); got[0] != 11 || got[2] != 33 {
		t.Fatalf("Add: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 || got[2] != 27 {
		t.Fatalf("Sub: %v", got)
	}
	if got := Mul(a, b).Data(); got[0] != 10 || got[2] != 90 {
		t.Fatalf("Mul: %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(New(2), New(3))
}

func TestScaleAddScaled(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	a.Scale(3)
	if a.Data()[1] != 6 {
		t.Fatal("Scale failed")
	}
	b := FromSlice([]float64{10, 10}, 2)
	a.AddScaled(0.5, b)
	if a.Data()[0] != 8 || a.Data()[1] != 11 {
		t.Fatalf("AddScaled: %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{1, -2, 3, 4}, 4)
	if !almostEq(x.Sum(), 6) {
		t.Fatalf("Sum: %v", x.Sum())
	}
	if !almostEq(x.Mean(), 1.5) {
		t.Fatalf("Mean: %v", x.Mean())
	}
	if x.Max() != 4 {
		t.Fatalf("Max: %v", x.Max())
	}
	if !almostEq(x.Norm2(), math.Sqrt(1+4+9+16)) {
		t.Fatalf("Norm2: %v", x.Norm2())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if !almostEq(Dot(a, b), 32) {
		t.Fatalf("Dot: %v", Dot(a, b))
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	x.AddRowVector(v)
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if x.Data()[i] != w {
			t.Fatalf("AddRowVector: %v", x.Data())
		}
	}
	sums := New(3)
	x.ColSumsInto(sums)
	if sums.Data()[0] != 25 || sums.Data()[1] != 47 || sums.Data()[2] != 69 {
		t.Fatalf("ColSums: %v", sums.Data())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
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
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Set(1, i, i)
	}
	a := New(n, n)
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
	matMul(New(2, 3), New(4, 2))
}

// naiveMatMul is an obviously-correct reference implementation.
// matMul returns a @ b under the default compute budget.
func matMul(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.shape[0], b.shape[1])
	Compute{}.MatMulInto(out, a, b)
	return out
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	ad, bd := a.Data(), b.Data() // flat row-major; At's index checks dominate the parity grid
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
		a, b := New(m, k), New(k, n)
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
	a, b := New(m, k), New(k, n)
	for i := range a.Data() {
		a.Data()[i] = float64(i%13) - 6
	}
	for i := range b.Data() {
		b.Data()[i] = float64(i%7) - 3
	}
	got := New(m, n)
	Compute{Workers: 4}.MatMulInto(got, a, b)
	// Serial reference on a few spot rows to keep the test fast.
	for _, i := range []int{0, m / 2, m - 1} {
		for _, j := range []int{0, n / 2, n - 1} {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			if !almostEq(got.At(i, j), s) {
				t.Fatalf("parallel matmul wrong at (%d,%d): got %v want %v", i, j, got.At(i, j), s)
			}
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2) // aT is 2x3
	b := FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2)
	got := New(2, 2)
	Compute{}.MatMulTransAInto(got, a, b)
	want := matMul(Transpose(a), b)
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i]) {
			t.Fatalf("MatMulTransA: got %v want %v", got.Data(), want.Data())
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{1, 1, 0, 0, 2, 1, 3, 0, 1, 1, 1, 1}, 4, 3) // bT is 3x4
	got := New(2, 4)
	Compute{}.MatMulTransBInto(got, a, b)
	want := matMul(a, Transpose(b))
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i]) {
			t.Fatalf("MatMulTransB: got %v want %v", got.Data(), want.Data())
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape: %v", at.Shape())
	}
	if at.At(0, 1) != 4 || at.At(2, 0) != 3 {
		t.Fatal("transpose values wrong")
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
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cols := Compute{}.Im2Col(x, 2, 2, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	wantRow0 := []float64{1, 2, 4, 5}
	wantRow3 := []float64{5, 6, 8, 9}
	for i, w := range wantRow0 {
		if cols.At(0, i) != w {
			t.Fatalf("row0: %v", cols.Data()[:4])
		}
	}
	for i, w := range wantRow3 {
		if cols.At(3, i) != w {
			t.Fatalf("row3: %v", cols.Data()[12:16])
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	cols := Compute{}.Im2Col(x, 3, 3, 1, 1) // same-pad: 4 output positions
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// Top-left patch: padding everywhere except bottom-right 2x2 block.
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, w := range want {
		if cols.At(0, i) != w {
			t.Fatalf("padded patch: got %v want %v", cols.Data()[:9], want)
		}
	}
}

func TestIm2ColMultiChannelBatch(t *testing.T) {
	x := New(2, 3, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	cols := Compute{}.Im2Col(x, 2, 2, 2, 0)
	if cols.Dim(0) != 2*2*2 || cols.Dim(1) != 3*2*2 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// First patch of second image, first channel starts at offset 48.
	if cols.At(4, 0) != 48 {
		t.Fatalf("batch offset wrong: %v", cols.At(4, 0))
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Compute{}.Im2Col(x), y> == <x, Compute{}.Col2Im(y)> must hold for the adjoint pair.
	b, c, h, w, kh, kw, stride, pad := 2, 2, 5, 5, 3, 3, 1, 1
	x := New(b, c, h, w)
	for i := range x.Data() {
		x.Data()[i] = float64((i*7)%11) - 5
	}
	cols := Compute{}.Im2Col(x, kh, kw, stride, pad)
	y := New(cols.Dim(0), cols.Dim(1))
	for i := range y.Data() {
		y.Data()[i] = float64((i*3)%5) - 2
	}
	lhs := Dot(cols, y)
	back := Compute{}.Col2Im(y, b, c, h, w, kh, kw, stride, pad)
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
	Compute{}.Col2Im(New(3, 3), 1, 1, 4, 4, 2, 2, 1, 0)
}

func BenchmarkMatMul64(b *testing.B) {
	a := New(64, 64)
	c := New(64, 64)
	out := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute{}.MatMulInto(out, a, c)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	a := New(256, 256)
	c := New(256, 256)
	out := New(256, 256)
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
