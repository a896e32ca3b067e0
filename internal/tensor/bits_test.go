package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"testing"
)

// gemmBitsPins are FNV-64a digests of every GEMM and conv entry's output
// over parityShapes and convCases, per dtype and kernel path. A change
// that moves any element's bits on both sides of a parity test (the
// materialized oracle runs through the same MatMul entries) still moves
// a digest here. The worker budget is not part of the key: a result must
// not depend on it.
var gemmBitsPins = map[string]uint64{
	"float64/generic": 0x7d35b06328d083ab,
	"float64/fma":     0x63b3085854c7c609,
	"float32/generic": 0x15acd0f6c1c49507,
	"float32/fma":     0x5c3928ac4fc6f301,
}

// digestBits folds t's element bits into h.
func digestBits(h io.Writer, t *Tensor) {
	var buf []byte
	if t.dt == Float32 {
		for _, v := range t.data32 {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	} else {
		for _, v := range t.data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	h.Write(buf)
}

// gemmBitsDigest runs the three MatMul entries over parityShapes and the
// three conv entries over convCases on dirty destinations, and digests
// every output.
func gemmBitsDigest(dt DType, cmp Compute) uint64 {
	h := fnv.New64a()
	for _, s := range parityShapes() {
		m, k, n := s.m, s.k, s.n
		a, b, at, bt := NewOf(dt, m, k), NewOf(dt, k, n), NewOf(dt, k, m), NewOf(dt, n, k)
		fillDetOf(a, m+2*k+3*n)
		fillDetOf(b, n+5*k)
		fillDetOf(at, 7*m+k)
		fillDetOf(bt, 11*n+k)
		got := NewOf(dt, m, n)
		for _, run := range []func(){
			func() { cmp.MatMulInto(got, a, b) },
			func() { cmp.MatMulTransAInto(got, at, b) },
			func() { cmp.MatMulTransBInto(got, a, bt) },
		} {
			got.Fill(7)
			run()
			digestBits(h, got)
		}
	}
	for _, cc := range convCases() {
		oh, ow := ConvOutSize(cc.h, cc.k, cc.stride, cc.pad), ConvOutSize(cc.w, cc.k, cc.stride, cc.pad)
		x, w := NewOf(dt, cc.b, cc.c, cc.h, cc.w), NewOf(dt, cc.c*cc.k*cc.k, cc.oc)
		bias, grad := NewOf(dt, cc.oc), NewOf(dt, cc.b, cc.oc, oh, ow)
		for i, v := range []*Tensor{x, w, bias, grad} {
			fillDetOf(v, i+1)
		}
		out, dw, dx := NewOf(dt, cc.b, cc.oc, oh, ow), NewOf(dt, cc.c*cc.k*cc.k, cc.oc), NewOf(dt, cc.b, cc.c, cc.h, cc.w)
		for _, d := range []*Tensor{out, dw, dx} {
			d.Fill(7)
		}
		cmp.ConvInto(out, x, w, bias, cc.k, cc.k, cc.stride, cc.pad)
		cmp.ConvWeightGradInto(dw, x, grad, cc.k, cc.k, cc.stride, cc.pad)
		cmp.ConvInputGradInto(dx, grad, w, cc.k, cc.k, cc.stride, cc.pad)
		for _, d := range []*Tensor{out, dw, dx} {
			digestBits(h, d)
		}
	}
	return h.Sum64()
}

// TestGEMMBitsPinned pins the bits of every product the driver computes
// against literals, on both kernel paths and under one and three workers.
// It runs on amd64 and 386 only: other architectures' compilers may fuse
// the portable kernel's acc += a*b into one FMA (arm64, ppc64x, s390x,
// riscv64 do), which rounds once where amd64 and 386 round twice, so the
// generic path's literals would not hold there.
func TestGEMMBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("GOARCH %s may fuse multiply-adds in the portable kernel", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	withBothKernelPaths(t, func(t *testing.T) {
		path := "generic"
		if useFMA {
			path = "fma"
		}
		for _, dt := range []DType{Float64, Float32} {
			key := fmt.Sprintf("%v/%s", dt, path)
			for _, workers := range []int{1, 3} {
				if got := gemmBitsDigest(dt, Compute{Workers: workers}); got != gemmBitsPins[key] {
					t.Errorf("%s workers=%d: digest %#016x, pinned %#016x", key, workers, got, gemmBitsPins[key])
				}
			}
		}
	})
}
