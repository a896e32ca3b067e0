package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file implements the workspace/pooling subsystem that keeps the
// training hot path allocation-free. Two complementary tools:
//
//   - Ensure/EnsureOf grow a caller-held scratch tensor in place. Layers
//     use them for per-layer buffers that live as long as the layer (the
//     common case).
//   - Pool/Workspace recycle size-bucketed backing arrays across
//     goroutines. The federated layer uses a Workspace per client so the
//     round-scoped scratch of the K sampled parties is shared through one
//     pool instead of being held by all N parties forever.
//
// Both dtypes are served: the pool keeps separate bucket sets for float64
// and float32 backing arrays, and Ensure preserves the dtype of the tensor
// it grows.
//
// The steady-state training rule: no tensor.NewOf inside Forward/Backward
// or the per-batch training loop. NewOf is for construction time (weights,
// datasets) and for results that escape (per-round deltas).

// panicDim reports a bad dimension without referencing the shape slice:
// hot-path shape validation must not mention the variadic in a panic
// message, or escape analysis heap-allocates the slice on every call.
//
//go:noinline
func panicDim(d int) {
	panic(fmt.Sprintf("tensor: non-positive dimension %d in shape", d))
}

// shapeLen validates a shape and returns its element count without
// leaking the slice (callers keep their variadic on the stack).
func shapeLen(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panicDim(d)
		}
		n *= d
	}
	return n
}

// Ensure returns a tensor with the given shape for use as scratch: it
// reshapes t in place when its backing array has enough capacity and
// allocates a fresh tensor otherwise. A nil t yields a Float64 tensor; a
// non-nil t keeps its dtype (use EnsureOf to demand one). The contents are
// unspecified — callers that accumulate must Zero it first; callers that
// fully overwrite need not. Typical use: `l.buf = tensor.Ensure(l.buf, m,
// n)`. In steady state (stable shapes) it performs no allocations at all.
func Ensure(t *Tensor, shape ...int) *Tensor {
	if t == nil {
		return EnsureOf(Float64, nil, shape...)
	}
	return EnsureOf(t.dt, t, shape...)
}

// EnsureOf is Ensure with an explicit dtype: a tensor of the wrong dtype
// (or insufficient capacity, or nil) is replaced by a fresh allocation.
func EnsureOf(dt DType, t *Tensor, shape ...int) *Tensor {
	n := shapeLen(shape)
	if dt == Float32 {
		if t == nil || t.dt != Float32 || cap(t.data32) < n {
			s := make([]int, len(shape))
			copy(s, shape)
			return &Tensor{shape: s, data32: make([]float32, n), dt: Float32}
		}
		t.data32 = t.data32[:n]
	} else {
		if t == nil || t.dt != Float64 || cap(t.data) < n {
			s := make([]int, len(shape))
			copy(s, shape)
			return &Tensor{shape: s, data: make([]float64, n)}
		}
		t.data = t.data[:n]
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Pool size classes. Up to 2^poolFineLog elements a class is a power of
// two; above it every octave splits into 1<<poolSubBits equal steps, so a
// pooled state-length vector pins at most 1/8 more than was asked for
// (a 262 858-element stream holds 294 912 elements, where whole octaves
// held 524 288). Arrays above 2^maxPoolLog elements (512 MiB of float64,
// 256 MiB of float32) bypass the pool.
const (
	poolFineLog = 16
	poolSubBits = 3
	maxPoolLog  = 26
	poolClasses = poolFineLog + 1 + (maxPoolLog-poolFineLog)<<poolSubBits
)

// Pool recycles tensors through size-classed sync.Pools, one class set
// per dtype. GetRaw and Put are goroutine-safe; the same Pool may serve
// many concurrently-training clients.
type Pool struct {
	buckets   [poolClasses]sync.Pool // float64 backing arrays
	buckets32 [poolClasses]sync.Pool // float32 backing arrays
}

// Shared is the process-wide default pool, used by Workspaces constructed
// with a nil pool.
var Shared = &Pool{}

// classFor returns the index and capacity of the smallest size class that
// holds n elements, or (-1, n) when n is too large to pool. It serves Put
// as well: a capacity belongs to the pool exactly when it is its own
// class's capacity.
func classFor(n int) (idx, size int) {
	if n <= 1 {
		return 0, 1
	}
	k := bits.Len(uint(n - 1)) // ceil(log2 n)
	if k > maxPoolLog {
		return -1, n
	}
	if k <= poolFineLog {
		return k, 1 << k
	}
	// 2^(k-1) < n <= 2^k: round up to a multiple of the octave's step.
	k--
	shift := k - poolSubBits
	sub := (n - 1<<k + 1<<shift - 1) >> shift
	return poolFineLog + (k-poolFineLog)<<poolSubBits + sub, 1<<k + sub<<shift
}

// GetRaw returns a tensor of the given dtype and shape, reusing a pooled
// backing array when one is available. The contents are unspecified:
// callers fully overwrite it (simnet's chunk-frame decode buffers, the
// GEMM and conv scratch) or clear it first.
func (p *Pool) GetRaw(dt DType, shape ...int) *Tensor {
	n := shapeLen(shape)
	b, size := classFor(n)
	set := &p.buckets
	if dt == Float32 {
		set = &p.buckets32
	}
	if b >= 0 {
		if v := set[b].Get(); v != nil {
			t := v.(*Tensor)
			if dt == Float32 {
				t.data32 = t.data32[:n]
			} else {
				t.data = t.data[:n]
			}
			t.shape = append(t.shape[:0], shape...)
			return t
		}
	}
	s := make([]int, len(shape))
	copy(s, shape)
	t := &Tensor{shape: s, dt: dt}
	if dt == Float32 {
		data := make([]float32, size)
		t.data32 = data[:n]
	} else {
		data := make([]float64, size)
		t.data = data[:n]
	}
	return t
}

// Put returns t's backing array to the pool. t must not be used afterwards.
// Tensors whose capacity is not exactly a size class's (e.g. created by NewOf
// rather than GetRaw) are silently dropped.
func (p *Pool) Put(t *Tensor) {
	if t == nil {
		return
	}
	c := cap(t.data)
	set := &p.buckets
	if t.dt == Float32 {
		c = cap(t.data32)
		set = &p.buckets32
	}
	b, size := classFor(c)
	if b < 0 || size != c {
		return
	}
	if t.dt == Float32 {
		t.data32 = t.data32[:c]
	} else {
		t.data = t.data[:c]
	}
	set[b].Put(t)
}

// Workspace is a convenience view over a Pool that remembers what it handed
// out so a whole scope's scratch can be released at once:
//
//	ws := tensor.NewWorkspace(nil)
//	buf := ws.GetRaw(tensor.Float64, m, n)
//	... use buf ...
//	ws.Release() // everything goes back to the pool
//
// A Workspace is NOT goroutine-safe; give each goroutine its own (they can
// share the underlying Pool, which is).
type Workspace struct {
	pool  *Pool
	taken []*Tensor
}

// NewWorkspace creates a workspace over the given pool; nil selects the
// process-wide Shared pool.
func NewWorkspace(p *Pool) *Workspace {
	if p == nil {
		p = Shared
	}
	return &Workspace{pool: p}
}

// GetRaw returns a tensor from the underlying pool, tracked for the next
// Release. The contents are unspecified, as with Pool.GetRaw.
func (w *Workspace) GetRaw(dt DType, shape ...int) *Tensor {
	t := w.pool.GetRaw(dt, shape...)
	w.taken = append(w.taken, t)
	return t
}

// Release returns every tensor obtained since the last Release to the
// pool. Tensors handed out by GetRaw must not be used afterwards.
func (w *Workspace) Release() {
	for i, t := range w.taken {
		w.pool.Put(t)
		w.taken[i] = nil
	}
	w.taken = w.taken[:0]
}

// offsetTables recycles the GEMM driver's A offset tables (gemm.go,
// conv.go) as *[]int. getOffsets drops a pooled table too short for its
// request for one that fits, so the pooled tables grow to the longest
// request in use and, from then on, none is allocated.
var offsetTables sync.Pool

// getOffsets returns a table of n ints, contents unspecified; the caller
// puts it back in offsetTables.
func getOffsets(n int) *[]int {
	t, _ := offsetTables.Get().(*[]int)
	if t == nil || cap(*t) < n {
		s := make([]int, n)
		t = &s
	}
	*t = (*t)[:n]
	return t
}
