// AVX2+FMA microkernel bodies of the packed-panel GEMM driver (gemm.go),
// written once over element-type macros. gemm_amd64.s includes this file
// twice, once per dtype, with these macros defined:
//
//	ESIZE ESHIFT                  the element size in bytes, and its log2
//	VMOVU VBCAST VFMA VADD VXOR   the PS/SS or PD/SD spelling of each op
//	KFULL KSTORE KNARROW          the three symbol names to emit
//
// Every kernel has the Go signature
//
//	func(a0, a1, a2, a3 *T, off *int, b *T, kb uintptr, d *T, ldd uintptr)
//
// The B operand always arrives packed tile-major: one k step is 64 bytes
// (16 float32 or 8 float64, two ymm registers), unit-stride. A is never
// packed: a0..a3 point at the origins of the tile's four A rows, and off
// at kb step offsets in elements, so step p reads a_r[off[p]]. A plain
// row-major A passes off[p] = p, a transposed one p times its row
// length, and a convolution's patch matrix the offset of patch element p
// from a pixel's origin in the image, so the kernels read every product's
// A in place. kb must be >= 1; ldd is in elements.

// The helper macros are defined on the first inclusion only; they expand
// the element-type macros at their point of use.
#ifndef PROLOGUE

// PROLOGUE loads the arguments, converts ldd to bytes and zeroes the
// eight accumulators.
#define PROLOGUE \
	MOVQ a0+0(FP), R8;    \
	MOVQ a1+8(FP), R9;    \
	MOVQ a2+16(FP), R10;  \
	MOVQ a3+24(FP), R11;  \
	MOVQ off+32(FP), R13; \
	MOVQ b+40(FP), BX;    \
	MOVQ kb+48(FP), CX;   \
	MOVQ d+56(FP), DI;    \
	MOVQ ldd+64(FP), DX;  \
	SHLQ $ESHIFT, DX;     \
	VXOR Y0, Y0, Y0;     \
	VXOR Y1, Y1, Y1;     \
	VXOR Y2, Y2, Y2;     \
	VXOR Y3, Y3, Y3;     \
	VXOR Y4, Y4, Y4;     \
	VXOR Y5, Y5, Y5;     \
	VXOR Y6, Y6, Y6;     \
	VXOR Y7, Y7, Y7

// STEP2 is one k step of the two-ymm-wide tile: accumulator pair
// (Y2r, Y2r+1) holds row r. Two B loads, four A broadcasts, eight FMAs;
// the chains are eight FMAs apart, which hides the FMA latency.
#define STEP2(B0, B1, A0, A1, A2, A3) \
	VMOVU  B0, Y8;       \
	VMOVU  B1, Y9;       \
	VBCAST A0, Y10;      \
	VFMA   Y8, Y10, Y0;  \
	VFMA   Y9, Y10, Y1;  \
	VBCAST A1, Y10;      \
	VFMA   Y8, Y10, Y2;  \
	VFMA   Y9, Y10, Y3;  \
	VBCAST A2, Y10;      \
	VFMA   Y8, Y10, Y4;  \
	VFMA   Y9, Y10, Y5;  \
	VBCAST A3, Y10;      \
	VFMA   Y8, Y10, Y6;  \
	VFMA   Y9, Y10, Y7

// STEP1 is one k step of the one-ymm-wide tile into accumulators
// C0..C3 (one per row); only the first 32 bytes of the B step are read.
#define STEP1(B0, A0, A1, A2, A3, C0, C1, C2, C3) \
	VMOVU  B0, Y8;       \
	VBCAST A0, Y10;      \
	VFMA   Y8, Y10, C0;  \
	VBCAST A1, Y10;      \
	VFMA   Y8, Y10, C1;  \
	VBCAST A2, Y10;      \
	VFMA   Y8, Y10, C2;  \
	VBCAST A3, Y10;      \
	VFMA   Y8, Y10, C3

// OFF2 loads the offsets of the next two k steps into AX and R12.
#define OFF2 \
	MOVQ (R13), AX; \
	MOVQ 8(R13), R12

// ADVANCE2 steps the offset table and B past two k steps.
#define ADVANCE2 \
	ADDQ $16, R13;  \
	ADDQ $128, BX;  \
	SUBQ $2, CX

// ADDROW2 adds accumulators (C0, C1) into the 64-byte dst row at DI.
#define ADDROW2(C0, C1) \
	VMOVU (DI), Y8;    \
	VMOVU 32(DI), Y9;  \
	VADD  Y8, C0, C0;  \
	VADD  Y9, C1, C1;  \
	VMOVU C0, (DI);    \
	VMOVU C1, 32(DI)

// ADDROW1 adds accumulator C0 into the 32-byte dst row at DI.
#define ADDROW1(C0) \
	VMOVU (DI), Y8;    \
	VADD  Y8, C0, C0;  \
	VMOVU C0, (DI)

#endif

// KFULL accumulates a full-width tile (4x16 float32, 4x8 float64):
//
//	d[r*ldd + c] += sum over p of a_r[off[p]] * b[p*nr + c]
//
// The k loop is unrolled by two, loading both steps' offsets up front, to
// halve the pointer-update/branch overhead.
TEXT KFULL(SB), NOSPLIT, $0-72
	PROLOGUE
	CMPQ CX, $2
	JLT  tail

pair:
	OFF2
	STEP2((BX), 32(BX), (R8)(AX*ESIZE), (R9)(AX*ESIZE), (R10)(AX*ESIZE), (R11)(AX*ESIZE))
	STEP2(64(BX), 96(BX), (R8)(R12*ESIZE), (R9)(R12*ESIZE), (R10)(R12*ESIZE), (R11)(R12*ESIZE))
	ADVANCE2
	CMPQ CX, $2
	JGE  pair

tail:
	TESTQ CX, CX
	JZ    done
	MOVQ  (R13), AX
	STEP2((BX), 32(BX), (R8)(AX*ESIZE), (R9)(AX*ESIZE), (R10)(AX*ESIZE), (R11)(AX*ESIZE))

done:
	ADDROW2(Y0, Y1)
	ADDQ DX, DI
	ADDROW2(Y2, Y3)
	ADDQ DX, DI
	ADDROW2(Y4, Y5)
	ADDQ DX, DI
	ADDROW2(Y6, Y7)
	VZEROUPPER
	RET

// KSTORE is the store-mode twin of KFULL: identical accumulation, but the
// epilogue writes the tile without reading it first (d[r*ldd + c] = sum),
// so the driver never zeroes dst before the first k-block.
TEXT KSTORE(SB), NOSPLIT, $0-72
	PROLOGUE
	CMPQ CX, $2
	JLT  tailst

pairst:
	OFF2
	STEP2((BX), 32(BX), (R8)(AX*ESIZE), (R9)(AX*ESIZE), (R10)(AX*ESIZE), (R11)(AX*ESIZE))
	STEP2(64(BX), 96(BX), (R8)(R12*ESIZE), (R9)(R12*ESIZE), (R10)(R12*ESIZE), (R11)(R12*ESIZE))
	ADVANCE2
	CMPQ CX, $2
	JGE  pairst

tailst:
	TESTQ CX, CX
	JZ    donest
	MOVQ  (R13), AX
	STEP2((BX), 32(BX), (R8)(AX*ESIZE), (R9)(AX*ESIZE), (R10)(AX*ESIZE), (R11)(AX*ESIZE))

donest:
	VMOVU Y0, (DI)
	VMOVU Y1, 32(DI)
	ADDQ  DX, DI
	VMOVU Y2, (DI)
	VMOVU Y3, 32(DI)
	ADDQ  DX, DI
	VMOVU Y4, (DI)
	VMOVU Y5, 32(DI)
	ADDQ  DX, DI
	VMOVU Y6, (DI)
	VMOVU Y7, 32(DI)
	VZEROUPPER
	RET

// KNARROW is the one-ymm-wide variant (4x8 float32, 4x4 float64) for
// column remainders of half a panel or less:
//
//	d[r*ldd + c] += sum over p of a_r[off[p]] * b[p*nr + c], c < nr/2
//
// B still advances 64 bytes per step because the panels are packed
// full-width; the upper half is never loaded. Even and odd k steps
// accumulate into separate register sets so the four FMA chains overlap.
TEXT KNARROW(SB), NOSPLIT, $0-72
	PROLOGUE
	CMPQ CX, $2
	JLT  tailnw

pairnw:
	OFF2
	STEP1((BX), (R8)(AX*ESIZE), (R9)(AX*ESIZE), (R10)(AX*ESIZE), (R11)(AX*ESIZE), Y0, Y1, Y2, Y3)
	STEP1(64(BX), (R8)(R12*ESIZE), (R9)(R12*ESIZE), (R10)(R12*ESIZE), (R11)(R12*ESIZE), Y4, Y5, Y6, Y7)
	ADVANCE2
	CMPQ CX, $2
	JGE  pairnw

tailnw:
	TESTQ CX, CX
	JZ    donenw
	MOVQ  (R13), AX
	STEP1((BX), (R8)(AX*ESIZE), (R9)(AX*ESIZE), (R10)(AX*ESIZE), (R11)(AX*ESIZE), Y0, Y1, Y2, Y3)

donenw:
	// fold odd into even and accumulate into dst
	VADD Y4, Y0, Y0
	VADD Y5, Y1, Y1
	VADD Y6, Y2, Y2
	VADD Y7, Y3, Y3
	ADDROW1(Y0)
	ADDQ DX, DI
	ADDROW1(Y1)
	ADDQ DX, DI
	ADDROW1(Y2)
	ADDQ DX, DI
	ADDROW1(Y3)
	VZEROUPPER
	RET
