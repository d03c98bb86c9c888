#include "textflag.h"

// AVX2+FMA lane kernels for the float32 matmuls. Lanes are output cells:
// every YMM register holds eight adjacent columns of one output row, and
// each loop iteration folds one k term into all lanes with a fused
// multiply-add. Per-cell accumulation order therefore stays ascending k,
// matching the pure-Go kernels; only the mul->add intermediate rounding is
// fused away, which tightens (never widens) the k-term error envelope
// documented in kernels32.go. Callers guarantee k > 0.

// func fmaBlock8(d, a, b *float32, k, stride int)
//
// d[0:8] += sum over kk of a[kk] * b[kk*stride : kk*stride+8].
TEXT ·fmaBlock8(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), BX
	SHLQ $2, BX
	VMOVUPS (DI), Y0
loop8:
	VBROADCASTSS (SI), Y1
	VFMADD231PS (DX), Y1, Y0
	ADDQ $4, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop8
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func fmaBlock32(d, a, b *float32, k, stride int)
//
// Four adjacent 8-lane blocks (32 columns) per pass: four independent FMA
// dependency chains hide the FMA latency that a single-accumulator loop
// would serialise on.
TEXT ·fmaBlock32(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), BX
	SHLQ $2, BX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
loop32:
	VBROADCASTSS (SI), Y4
	VFMADD231PS (DX), Y4, Y0
	VFMADD231PS 32(DX), Y4, Y1
	VFMADD231PS 64(DX), Y4, Y2
	VFMADD231PS 96(DX), Y4, Y3
	ADDQ $4, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// TILE4_16 and TILE4_8 are one k step of the register tile below: the B
// vectors of this k row (at R13) are loaded once and folded into all four
// output rows, each row through its own broadcast of a. SI walks row 0 of
// the 4×k block of a; rows 1-3 sit R9, 2·R9 and R10 = 3·R9 bytes further on.
#define TILE4_16 \
	VMOVUPS (R13), Y8              \
	VMOVUPS 32(R13), Y9            \
	VBROADCASTSS (SI), Y10         \
	VFMADD231PS Y8, Y10, Y0        \
	VFMADD231PS Y9, Y10, Y1        \
	VBROADCASTSS (SI)(R9*1), Y11   \
	VFMADD231PS Y8, Y11, Y2        \
	VFMADD231PS Y9, Y11, Y3        \
	VBROADCASTSS (SI)(R9*2), Y12   \
	VFMADD231PS Y8, Y12, Y4        \
	VFMADD231PS Y9, Y12, Y5        \
	VBROADCASTSS (SI)(R10*1), Y13  \
	VFMADD231PS Y8, Y13, Y6        \
	VFMADD231PS Y9, Y13, Y7

#define TILE4_8 \
	VMOVUPS (R13), Y8              \
	VBROADCASTSS (SI), Y10         \
	VFMADD231PS Y8, Y10, Y0        \
	VBROADCASTSS (SI)(R9*1), Y11   \
	VFMADD231PS Y8, Y11, Y2        \
	VBROADCASTSS (SI)(R9*2), Y12   \
	VFMADD231PS Y8, Y12, Y4        \
	VBROADCASTSS (SI)(R10*1), Y13  \
	VFMADD231PS Y8, Y13, Y6

// func fmaTile4(d, a, b *float32, k, n, cols int)
//
// The register tile: four output rows by sixteen columns held in eight
// accumulators across the whole k loop, so each B vector loaded feeds four
// FMAs and b is streamed once per four rows of a instead of once per row.
// d[r*n+c] += sum over kk of a[r*k+kk] * b[kk*n+c] for r < 4, c < cols;
// cols is a multiple of 8, walked sixteen columns at a time with one
// eight-column pass (four accumulators) for an odd block. Every lane is one
// output cell folding its terms in ascending k with one fused multiply-add
// per term, which is fmaBlock8's sequence exactly: tiling changes which
// cells are in flight, not what any cell computes.
TEXT ·fmaTile4(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), BX
	MOVQ cols+40(FP), R11
	SHLQ $2, BX              // row stride of d and b in bytes
	LEAQ (BX)(BX*2), R12
	MOVQ R8, R9
	SHLQ $2, R9              // row stride of a in bytes
	LEAQ (R9)(R9*2), R10
	CMPQ R11, $16
	JLT  tile8
tile16:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(BX*1), Y2
	VMOVUPS 32(DI)(BX*1), Y3
	VMOVUPS (DI)(BX*2), Y4
	VMOVUPS 32(DI)(BX*2), Y5
	VMOVUPS (DI)(R12*1), Y6
	VMOVUPS 32(DI)(R12*1), Y7
	MOVQ DX, R13
	MOVQ R8, CX
loop16:
	TILE4_16
	ADDQ $4, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  loop16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(BX*1)
	VMOVUPS Y3, 32(DI)(BX*1)
	VMOVUPS Y4, (DI)(BX*2)
	VMOVUPS Y5, 32(DI)(BX*2)
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)
	SUBQ R9, SI              // back to a's first column
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, R11
	CMPQ R11, $16
	JGE  tile16
tile8:
	TESTQ R11, R11
	JZ   tiledone
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(BX*1), Y2
	VMOVUPS (DI)(BX*2), Y4
	VMOVUPS (DI)(R12*1), Y6
	MOVQ DX, R13
	MOVQ R8, CX
loop8x4:
	TILE4_8
	ADDQ $4, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  loop8x4
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(BX*1)
	VMOVUPS Y4, (DI)(BX*2)
	VMOVUPS Y6, (DI)(R12*1)
tiledone:
	VZEROUPPER
	RET
