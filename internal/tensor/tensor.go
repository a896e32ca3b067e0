// Package tensor implements dense row-major tensors and the kernels
// NIID-Bench's neural-network stack needs: matrix multiplication,
// element-wise kernels (AddInto, AddScaled, AddRowVector, ColSumsInto),
// Dot, and convolutions (ConvInto and its two gradients) run as matrix
// products on the same driver, with the im2col/col2im transforms as their
// materialized twins.
//
// Tensors are deliberately simple: a shape and a flat backing slice. The
// federated-learning layer moves models around as flat []float64 vectors,
// so tensors expose their data directly rather than hiding it.
//
// # Dtypes
//
// Every tensor carries a DType: Float64 or Float32, the low-precision
// training backend. A float32 tensor stores its elements in a []float32
// reachable via Data32; Data/Data32 panic when called for the wrong dtype
// so layout bugs surface immediately. Binary operations require matching
// dtypes; CopyToF64/CopyFromF64 convert at the model-state boundary, which
// is how the federated layer aggregates float32 models in float64. Choose
// the dtype at construction (NewOf, EnsureOf, Pool.GetRaw) — the nn layer
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
//
// The convolution entries (conv.go) are that driver reading images: the
// microkernels read every A operand through a row table and a step table
// of offsets, and the forward and the weight gradient pass the pixels'
// window origins and the patch elements' offsets, so they read the
// patch matrix straight from the (zero-bordered, when padded) image and
// no call derives any of it. Each product keeps the operands, kc blocking
// and microkernels of its materialized twin (Im2ColInto or Col2ImInto
// plus a MatMul entry), so its results are bitwise the twin's.
// They fan out over pixel blocks, kernel rows or images;
// Im2ColInto/Col2ImInto parallelize over the batch dimension. Every
// kernel writes into caller-provided storage. The goroutine fan-out of
// every kernel is bounded by an explicit Compute budget — call kernels as
// methods on a Compute value (Compute{Workers: n}.MatMulInto(...)) — so
// independent consumers in one process (per-client model replicas,
// concurrent simulations) each cap their own fan-out without any shared
// global knob.
//
// # Workspaces and the no-alloc rule
//
// Steady-state training must not call NewOf: per-layer scratch is grown in
// place with Ensure/EnsureOf, and round-scoped scratch comes from a
// Pool/Workspace (see pool.go). NewOf is for construction time and for
// results that escape their scope. Benchmarks enforce this:
// BenchmarkConvForwardBackward and BenchmarkLocalTrainStep report ~0
// allocs/op.
package tensor

import "fmt"

// Tensor is a dense row-major array of float64 or float32 values; exactly
// one of the backing slices is active, selected by dt.
type Tensor struct {
	shape  []int
	data   []float64
	data32 []float32
	dt     DType
}

// NewOf creates a zero tensor of the given dtype and shape. All
// dimensions must be positive.
func NewOf(dt DType, shape ...int) *Tensor { return EnsureOf(dt, nil, shape...) }

// ViewInto makes t (allocated when nil) a Float64 view of data with the
// given shape: the slice is used directly, not copied, and its length must
// equal the shape's element count. Callers that walk a large array window
// by window re-point one tensor, which allocates nothing once t exists.
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

// ReshapeInPlace changes t's shape in place, sharing the data; the element
// count must match. Returns t. Used on hot-path scratch tensors, which
// callers own and re-shape on every use without allocating.
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

// ColSumsInto overwrites dst (length = columns) with the column sums of
// the 2-D tensor t. Used for bias gradients.
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
