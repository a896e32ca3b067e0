// AVX2+FMA microkernels of the packed-panel GEMM driver (gemm.go). Only
// used when the CPU reports AVX2, FMA and OS ymm-state support (see
// x86HasAVX2FMA); the pure-Go tile kernel in gemm.go is the portable
// fallback. The kernel bodies live once in gemm_kernels_amd64.h and are
// instantiated below for each element type.

#include "textflag.h"

// func x86HasAVX2FMA() bool
//
// True iff CPUID reports FMA+AVX+OSXSAVE, the OS has enabled XMM+YMM
// state (XGETBV), and leaf 7 reports AVX2.
TEXT ·x86HasAVX2FMA(SB), NOSPLIT, $0-1
	// Highest basic leaf must cover leaf 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	CPUID
	MOVL CX, BX
	ANDL $(1<<12 | 1<<27 | 1<<28), BX
	CMPL BX, $(1<<12 | 1<<27 | 1<<28)
	JNE  no

	// XCR0 bits 1-2: XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0 EBX bit 5: AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// float32: 8 lanes per ymm, so the full tile is 4x16 and the narrow 4x8.
#define ESHIFT  2
#define ESIZE   4
#define VMOVU   VMOVUPS
#define VBCAST  VBROADCASTSS
#define VFMA    VFMADD231PS
#define VADD    VADDPS
#define VXOR    VXORPS
#define KFULL   ·sgemm4x16s
#define KSTORE  ·sgemm4x16st
#define KNARROW ·sgemm4x8s
#include "gemm_kernels_amd64.h"

#undef ESHIFT
#undef ESIZE
#undef VMOVU
#undef VBCAST
#undef VFMA
#undef VADD
#undef VXOR
#undef KFULL
#undef KSTORE
#undef KNARROW

// float64: 4 lanes per ymm, so the full tile is 4x8 and the narrow 4x4.
#define ESHIFT  3
#define ESIZE   8
#define VMOVU   VMOVUPD
#define VBCAST  VBROADCASTSD
#define VFMA    VFMADD231PD
#define VADD    VADDPD
#define VXOR    VXORPD
#define KFULL   ·dgemm4x8s
#define KSTORE  ·dgemm4x8st
#define KNARROW ·dgemm4x4s
#include "gemm_kernels_amd64.h"
