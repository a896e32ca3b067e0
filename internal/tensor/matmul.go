package tensor

import "fmt"

// The three GEMM entry points are shape checks plus one call into the
// packed-panel driver (gemm.go) with the strides that describe op(A) and
// op(B); the dtype picks the kernelSet.

// gemmDims validates a rank-2 product dst(m,n) = op(a)(m,k) @ op(b)(k,n)
// and returns (m, n, k). ta/tb say which operands are stored transposed.
func gemmDims(op string, dst, a, b *Tensor, ta, tb bool) (m, n, k int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if ta {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if tb {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", op, k, k2))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.shape, m, n))
	}
	assertSameDType(op, a, b)
	assertSameDType(op, a, dst)
	return m, n, k
}

// matmul runs the driver on the operands' dtype.
func (c Compute) matmul(dst, a, b *Tensor, m, n, k, ars, acs, brs, bcs int) {
	if a.dt == Float32 {
		gemm(&kernels32, c.workers(), dst.data32, a.data32, b.data32, m, n, k, ars, acs, brs, bcs)
		return
	}
	gemm(&kernels64, c.workers(), dst.data, a.data, b.data, m, n, k, ars, acs, brs, bcs)
}

// MatMulInto computes dst = a @ b for 2-D tensors. a is (m,k), b is (k,n),
// dst must be (m,n) and must not alias a or b. The goroutine fan-out is
// bounded by the receiver's budget.
func (c Compute) MatMulInto(dst, a, b *Tensor) {
	m, n, k := gemmDims("MatMul", dst, a, b, false, false)
	c.matmul(dst, a, b, m, n, k, k, 1, n, 1)
}

// MatMulTransAInto computes dst = aᵀ @ b where a is (k,m), b is (k,n) and
// dst is (m,n). Used for weight gradients without materializing aᵀ.
func (c Compute) MatMulTransAInto(dst, a, b *Tensor) {
	m, n, k := gemmDims("MatMulTransA", dst, a, b, true, false)
	c.matmul(dst, a, b, m, n, k, 1, m, n, 1)
}

// MatMulTransBInto computes dst = a @ bᵀ where a is (m,k), b is (n,k) and
// dst is (m,n). Used for input gradients without materializing bᵀ.
func (c Compute) MatMulTransBInto(dst, a, b *Tensor) {
	m, n, k := gemmDims("MatMulTransB", dst, a, b, false, true)
	c.matmul(dst, a, b, m, n, k, k, 1, 1, k)
}
