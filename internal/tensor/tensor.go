// Package tensor implements dense row-major tensors and the linear
// algebra NIID-Bench's neural-network stack needs: matrix multiplication,
// element-wise arithmetic, reductions, and the im2col/col2im transforms
// that turn convolutions into matrix products.
//
// Tensors are deliberately simple: a shape and a flat backing slice. The
// federated-learning layer moves models around as flat []float64 vectors,
// so tensors expose their data directly rather than hiding it.
//
// # Dtypes
//
// Every tensor carries a DType: Float64 (the default — all existing
// constructors produce it) or Float32, the low-precision training backend.
// A float32 tensor stores its elements in a []float32 reachable via
// Data32; Data/Data32 panic when called for the wrong dtype so layout bugs
// surface immediately. Binary operations require matching dtypes;
// CopyToF64/CopyFromF64 convert at the model-state boundary, which is how
// the federated layer aggregates float32 models in float64. Choose the
// dtype at construction (NewOf, EnsureOf, Pool.GetOf) — the nn layer
// plumbs nn.ModelSpec.DType down to every kernel.
//
// # Performance
//
// The GEMM kernels (MatMulInto, MatMulTransAInto, MatMulTransBInto) of both
// dtypes run through one packed-panel driver, generic over the element
// type (gemm.go): B is packed into tile-major panels, k and the dst rows
// are cache-blocked, the first k-block stores instead of accumulating so
// dst is never pre-zeroed, and row blocks fan out across goroutines above
// parallelThreshold. The dtype only selects a microkernel set — 4x16 and
// 4x8 tiles for float32, 4x8 and 4x4 for float64 — implemented once in
// AVX2+FMA assembly (gemm_kernels_amd64.h, instantiated per dtype by
// gemm_amd64.s, CPUID-gated by useFMA) with one portable Go twin. The
// int8 wire codec's kernels (quant.go) sit behind the same gate.
// Im2Col/Col2Im parallelize over the batch dimension. Everything has an
// Into variant writing into caller-provided storage. The goroutine fan-out
// of every kernel is bounded by an explicit Compute budget — call kernels
// as methods on a Compute value (Compute{Workers: n}.MatMulInto(...)) —
// so independent consumers in one process (per-client model replicas,
// concurrent simulations) each cap their own fan-out without any shared
// global knob.
//
// # Workspaces and the no-alloc rule
//
// Steady-state training must not call New: per-layer scratch is grown in
// place with Ensure/EnsureOf, and round-scoped scratch comes from a
// Pool/Workspace (see pool.go). New is for construction time and for
// results that escape their scope. Benchmarks enforce this:
// BenchmarkConvForwardBackward and BenchmarkLocalTrainStep report ~0
// allocs/op.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major array of float64 or float32 values; exactly
// one of the backing slices is active, selected by dt.
type Tensor struct {
	shape  []int
	data   []float64
	data32 []float32
	dt     DType
}

// New creates a zero Float64 tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) *Tensor {
	return NewOf(Float64, shape...)
}

// NewOf creates a zero tensor of the given dtype and shape.
func NewOf(dt DType, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	t := &Tensor{shape: s, dt: dt}
	if dt == Float32 {
		t.data32 = make([]float32, n)
	} else {
		t.data = make([]float64, n)
	}
	return t
}

// FromSlice wraps data in a Float64 tensor with the given shape. The slice
// is used directly (not copied); its length must equal the shape's element
// count.
func FromSlice(data []float64, shape ...int) *Tensor {
	checkSliceShape(len(data), shape)
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// ViewInto is FromSlice for callers that walk a large array window by
// window: it re-points t (allocated when nil) at data with the given
// shape, without copying and — once t exists — without allocating.
func ViewInto(t *Tensor, data []float64, shape ...int) *Tensor {
	if n := shapeLen(shape); n != len(data) {
		panicReshapeLen(n, len(data))
	}
	if t == nil {
		t = &Tensor{}
	}
	t.shape = append(t.shape[:0], shape...)
	t.data, t.data32, t.dt = data, nil, Float64
	return t
}

func checkSliceShape(have int, shape []int) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if have != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", have, shape, n))
	}
}

// DType returns the tensor's element type.
func (t *Tensor) DType() DType { return t.dt }

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the flat float64 backing slice. Mutating it mutates the
// tensor. It panics for Float32 tensors — use Data32.
func (t *Tensor) Data() []float64 {
	if t.dt != Float64 {
		panic("tensor: Data() on a " + t.dt.String() + " tensor")
	}
	return t.data
}

// Data32 returns the flat float32 backing slice. It panics for Float64
// tensors — use Data.
func (t *Tensor) Data32() []float32 {
	if t.dt != Float32 {
		panic("tensor: Data32() on a " + t.dt.String() + " tensor")
	}
	return t.data32
}

// Len returns the total number of elements.
func (t *Tensor) Len() int {
	if t.dt == Float32 {
		return len(t.data32)
	}
	return len(t.data)
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy (same dtype).
func (t *Tensor) Clone() *Tensor {
	c := NewOf(t.dt, t.shape...)
	if t.dt == Float32 {
		copy(c.data32, t.data32)
	} else {
		copy(c.data, t.data)
	}
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// counts must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.Len() {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, t.Len(), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data, data32: t.data32, dt: t.dt}
}

// ReshapeInPlace changes t's shape in place, sharing the data; the element
// count must match. Returns t. Used on hot-path scratch tensors where
// Reshape's fresh view would allocate every batch; callers own the tensor
// and re-shape it on every use.
func (t *Tensor) ReshapeInPlace(shape ...int) *Tensor {
	n := shapeLen(shape)
	if n != t.Len() {
		panicReshapeLen(n, t.Len())
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

//go:noinline
func panicReshapeLen(n, have int) {
	panic(fmt.Sprintf("tensor: cannot reshape %d elems to a %d-elem shape in place", have, n))
}

// At returns the element at the given multi-dimensional index as a
// float64, whatever the dtype. It is for tests and construction-time code,
// not hot loops.
func (t *Tensor) At(idx ...int) float64 {
	off := t.offset(idx)
	if t.dt == Float32 {
		return float64(t.data32[off])
	}
	return t.data[off]
}

// Set writes v (narrowed for Float32 tensors) at the given index.
func (t *Tensor) Set(v float64, idx ...int) {
	off := t.offset(idx)
	if t.dt == Float32 {
		t.data32[off] = float32(v)
		return
	}
	t.data[off] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	if t.dt == Float32 {
		fillSlice(t.data32, float32(v))
		return
	}
	fillSlice(t.data, v)
}

// Zero sets every element to 0. clear lowers to memclr, which fillSlice's
// value-parameterised loop cannot.
func (t *Tensor) Zero() {
	if t.dt == Float32 {
		clear(t.data32)
		return
	}
	clear(t.data)
}

// CopyToF64 converts the tensor's elements into dst (length Len), widening
// Float32 values. This is the model-state boundary: the federated layer
// aggregates every model — whatever its compute dtype — in float64.
func (t *Tensor) CopyToF64(dst []float64) {
	if t.dt == Float32 {
		convertSlice(dst[:len(t.data32)], t.data32)
		return
	}
	copy(dst, t.data)
}

// CopyFromF64 loads the tensor's elements from src (length >= Len),
// narrowing into Float32 tensors.
func (t *Tensor) CopyFromF64(src []float64) {
	if t.dt == Float32 {
		convertSlice(t.data32, src[:len(t.data32)])
		return
	}
	copy(t.data, src[:len(t.data)])
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

func assertSameDType(op string, a, b *Tensor) {
	if a.dt != b.dt {
		panic(fmt.Sprintf("tensor: %s dtype mismatch %v vs %v", op, a.dt, b.dt))
	}
}

// AddInto computes dst = a + b element-wise. All three must share a shape
// and dtype; dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	assertSameShape("add", a, b)
	assertSameShape("add", a, dst)
	assertSameDType("add", a, b)
	assertSameDType("add", a, dst)
	if dst.dt == Float32 {
		addSlices(dst.data32, a.data32, b.data32)
		return
	}
	addSlices(dst.data, a.data, b.data)
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.shape...)
	AddInto(out, a, b)
	return out
}

// SubInto computes dst = a - b element-wise.
func SubInto(dst, a, b *Tensor) {
	assertSameShape("sub", a, b)
	assertSameShape("sub", a, dst)
	assertSameDType("sub", a, b)
	assertSameDType("sub", a, dst)
	if dst.dt == Float32 {
		subSlices(dst.data32, a.data32, b.data32)
		return
	}
	subSlices(dst.data, a.data, b.data)
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.shape...)
	SubInto(out, a, b)
	return out
}

// MulInto computes dst = a * b element-wise (Hadamard product).
func MulInto(dst, a, b *Tensor) {
	assertSameShape("mul", a, b)
	assertSameShape("mul", a, dst)
	assertSameDType("mul", a, b)
	assertSameDType("mul", a, dst)
	if dst.dt == Float32 {
		mulSlices(dst.data32, a.data32, b.data32)
		return
	}
	mulSlices(dst.data, a.data, b.data)
}

// Mul returns the element-wise product of a and b.
func Mul(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.shape...)
	MulInto(out, a, b)
	return out
}

// Scale multiplies every element by s in place and returns t.
func (t *Tensor) Scale(s float64) *Tensor {
	if t.dt == Float32 {
		scaleSlice(t.data32, float32(s))
		return t
	}
	scaleSlice(t.data, s)
	return t
}

// AddScaled adds s*o to t in place (axpy). Shapes and dtypes must match.
func (t *Tensor) AddScaled(s float64, o *Tensor) {
	assertSameShape("addscaled", t, o)
	assertSameDType("addscaled", t, o)
	if t.dt == Float32 {
		axpySlice(t.data32, o.data32, float32(s))
		return
	}
	axpySlice(t.data, o.data, s)
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	if t.dt == Float32 {
		return sumSlice(t.data32)
	}
	return sumSlice(t.data)
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	return t.Sum() / float64(t.Len())
}

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	if t.Len() == 0 {
		return math.Inf(-1)
	}
	if t.dt == Float32 {
		return maxSlice(t.data32)
	}
	return maxSlice(t.data)
}

// Dot returns the inner product of the flattened tensors (accumulated in
// float64).
func Dot(a, b *Tensor) float64 {
	assertSameShape("dot", a, b)
	assertSameDType("dot", a, b)
	if a.dt == Float32 {
		return dotSlices(a.data32, b.data32)
	}
	return dotSlices(a.data, b.data)
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	var s float64
	if t.dt == Float32 {
		s = sumSquares(t.data32)
	} else {
		s = sumSquares(t.data)
	}
	return math.Sqrt(s)
}

// AddRowVector adds vector v (length = columns) to every row of the 2-D
// tensor t in place. Used for bias addition.
func (t *Tensor) AddRowVector(v *Tensor) {
	if t.Rank() != 2 || v.Len() != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %v vs %v", t.shape, v.shape))
	}
	assertSameDType("addrowvector", t, v)
	rows, cols := t.shape[0], t.shape[1]
	if t.dt == Float32 {
		addRowVec(t.data32, v.data32, rows, cols)
		return
	}
	addRowVec(t.data, v.data, rows, cols)
}

// ColSumsInto accumulates the column sums of the 2-D tensor t into dst
// (length = columns). Used for bias gradients.
func (t *Tensor) ColSumsInto(dst *Tensor) {
	if t.Rank() != 2 || dst.Len() != t.shape[1] {
		panic(fmt.Sprintf("tensor: ColSumsInto shape mismatch %v vs %v", t.shape, dst.shape))
	}
	assertSameDType("colsums", t, dst)
	rows, cols := t.shape[0], t.shape[1]
	if t.dt == Float32 {
		colSums(dst.data32, t.data32, rows, cols)
		return
	}
	colSums(dst.data, t.data, rows, cols)
}
