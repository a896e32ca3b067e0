// AVX2 kernels of the int8 wire codec (quant.go). Each covers len/16 whole
// blocks of 16 elements; the Go twin in quant.go does the tail. Only called
// when useFMA is set (see x86HasAVX2FMA in gemm_amd64.s).

#include "textflag.h"

// BCAST broadcasts the 64-bit pattern imm to every lane of Y (X is its low
// half).
#define BCAST(imm, X, Y) \
	MOVQ         $imm, AX; \
	VMOVQ        AX, X;    \
	VPBROADCASTQ X, Y

// SCAN4 folds four values at off(SI) into the running maximum M of their
// magnitudes and sets lanes of Y4 where a magnitude's bits exceed the
// largest finite double's (Y13): an Inf or a NaN. Y14 is the |.| mask.
#define SCAN4(off, M) \
	VANDPD   off(SI), Y14, Y8; \
	VMAXPD   Y8, M, M;         \
	VPCMPGTQ Y13, Y8, Y9;      \
	VPOR     Y9, Y4, Y4

// func maxAbsAVX2(v []float64) (m float64, finite bool)
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-33
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	SHRQ   $4, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VPXOR  Y4, Y4, Y4
	BCAST(0x7FFFFFFFFFFFFFFF, X14, Y14)
	BCAST(0x7FEFFFFFFFFFFFFF, X13, Y13)
	TESTQ  CX, CX
	JZ     reduce

scan:
	SCAN4(0, Y0)
	SCAN4(32, Y1)
	SCAN4(64, Y2)
	SCAN4(96, Y3)
	ADDQ $128, SI
	DECQ CX
	JNZ  scan

reduce:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, m+24(FP)
	VPTEST       Y4, Y4
	SETEQ        finite+32(FP)
	VZEROUPPER
	RET

// QUANT4 turns four values at off(SI) into four int32 levels in X: x =
// v/scale (Y15), t = trunc(x), t += copysign(1, x) where |x-t| >= 0.5
// (Y13 = 0.5, Y12 = 1.0, Y14 the |.| mask), then clamp to [-127, 127]
// (Y10, Y11) and convert. x-t is exact, so the compare sees the true
// fraction.
#define QUANT4(off, Y, X) \
	VMOVUPD     off(SI), Y;       \
	VDIVPD      Y15, Y, Y;        \
	VROUNDPD    $3, Y, Y8;        \
	VSUBPD      Y8, Y, Y9;        \
	VANDPD      Y14, Y9, Y9;      \
	VCMPPD      $0x1D, Y13, Y9, Y9; \
	VANDNPD     Y, Y14, Y;        \
	VORPD       Y12, Y, Y;        \
	VANDPD      Y9, Y, Y;         \
	VADDPD      Y8, Y, Y;         \
	VMINPD      Y11, Y, Y;        \
	VMAXPD      Y10, Y, Y;        \
	VCVTTPD2DQY Y, X

// func quantizeInt8AVX2(dst []byte, v []float64, scale float64)
TEXT ·quantizeInt8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	SHRQ $4, CX
	JZ   qdone
	VBROADCASTSD scale+48(FP), Y15
	BCAST(0x7FFFFFFFFFFFFFFF, X14, Y14)
	BCAST(0x3FE0000000000000, X13, Y13)
	BCAST(0x3FF0000000000000, X12, Y12)
	BCAST(0x405FC00000000000, X11, Y11)
	BCAST(0xC05FC00000000000, X10, Y10)

quant:
	QUANT4(0, Y0, X0)
	QUANT4(32, Y1, X1)
	QUANT4(64, Y2, X2)
	QUANT4(96, Y3, X3)
	VPACKSSDW X1, X0, X0
	VPACKSSDW X3, X2, X2
	VPACKSSWB X2, X0, X0
	VMOVDQU   X0, (DI)
	ADDQ      $128, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       quant
	VZEROUPPER

qdone:
	RET

// DEQ4 widens four levels at soff(SI) to doubles and scales them (Y15)
// into doff(DI).
#define DEQ4(soff, doff, Y, X) \
	VPMOVSXBD soff(SI), X; \
	VCVTDQ2PD X, Y;        \
	VMULPD    Y15, Y, Y;   \
	VMOVUPD   Y, doff(DI)

// func dequantizeInt8AVX2(dst []float64, src []byte, scale float64)
TEXT ·dequantizeInt8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $4, CX
	JZ   ddone
	VBROADCASTSD scale+48(FP), Y15

dequant:
	DEQ4(0, 0, Y0, X0)
	DEQ4(4, 32, Y1, X1)
	DEQ4(8, 64, Y2, X2)
	DEQ4(12, 96, Y3, X3)
	ADDQ $16, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  dequant
	VZEROUPPER

ddone:
	RET
