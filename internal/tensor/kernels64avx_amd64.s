#include "textflag.h"

// Unfused AVX2 lane kernels for the float64 matmuls. Lanes are output
// cells: every YMM register holds four adjacent columns of one output row,
// and each loop iteration folds one k term into all lanes with a VMULPD
// followed by a separate VADDPD. Per lane that is the IEEE-754 multiply,
// rounding, add and rounding of the MULSD/ADDSD pair the Go compiler emits
// for `s += a * q` on amd64 (where it never fuses), in the same ascending-k
// order, so every cell is bitwise identical to the pure-Go kernels in
// kernels.go. Never replace a VMULPD/VADDPD pair with VFMADD*: dropping the
// intermediate rounding is exactly what the float64 contract forbids.
// Callers guarantee k > 0.
//
// The Block kernels and the masked tail keep matMulRows' a == 0 skip (the
// integer test below is true for +0 and -0 only, like the Go comparison), so
// not even the sign of a zero differs. The tile has no skip and is only
// given 4×k blocks of a that hasZero64 found free of zeros.

// func mulAddBlock16(d, a, b *float64, k, stride int)
//
// d[0:16] += sum over kk with a[kk] != 0 of a[kk] * b[kk*stride : kk*stride+16].
// Four accumulators give four independent add chains to overlap against
// the add latency.
TEXT ·mulAddBlock16(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), BX
	SHLQ $3, BX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
loop16:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip16
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VMULPD 32(DX), Y4, Y6
	VMULPD 64(DX), Y4, Y7
	VMULPD 96(DX), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
skip16:
	ADDQ $8, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func mulAddBlock4(d, a, b *float64, k, stride int)
//
// mulAddBlock16 over one 4-lane block: d[0:4], same a == 0 skip.
TEXT ·mulAddBlock4(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), BX
	SHLQ $3, BX
	VMOVUPD (DI), Y0
loop4:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip4
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VADDPD Y5, Y0, Y0
skip4:
	ADDQ $8, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop4
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// TILE4_8 and TILE4_4 are one k step of the register tile below: the B
// vectors of this k row (at R13) are loaded once and folded into all four
// output rows, each row through its own broadcast of a, every product
// rounded by its VMULPD before the VADDPD that folds it. SI walks row 0 of
// the 4×k block of a; rows 1-3 sit R9, 2·R9 and R10 = 3·R9 bytes further on.
#define TILE4_8 \
	VMOVUPD (R13), Y8              \
	VMOVUPD 32(R13), Y9            \
	VBROADCASTSD (SI), Y10         \
	VMULPD Y8, Y10, Y11            \
	VMULPD Y9, Y10, Y12            \
	VADDPD Y11, Y0, Y0             \
	VADDPD Y12, Y1, Y1             \
	VBROADCASTSD (SI)(R9*1), Y10   \
	VMULPD Y8, Y10, Y13            \
	VMULPD Y9, Y10, Y14            \
	VADDPD Y13, Y2, Y2             \
	VADDPD Y14, Y3, Y3             \
	VBROADCASTSD (SI)(R9*2), Y10   \
	VMULPD Y8, Y10, Y11            \
	VMULPD Y9, Y10, Y12            \
	VADDPD Y11, Y4, Y4             \
	VADDPD Y12, Y5, Y5             \
	VBROADCASTSD (SI)(R10*1), Y10  \
	VMULPD Y8, Y10, Y13            \
	VMULPD Y9, Y10, Y14            \
	VADDPD Y13, Y6, Y6             \
	VADDPD Y14, Y7, Y7

#define TILE4_4 \
	VMOVUPD (R13), Y8              \
	VBROADCASTSD (SI), Y10         \
	VMULPD Y8, Y10, Y11            \
	VADDPD Y11, Y0, Y0             \
	VBROADCASTSD (SI)(R9*1), Y10   \
	VMULPD Y8, Y10, Y12            \
	VADDPD Y12, Y2, Y2             \
	VBROADCASTSD (SI)(R9*2), Y10   \
	VMULPD Y8, Y10, Y13            \
	VADDPD Y13, Y4, Y4             \
	VBROADCASTSD (SI)(R10*1), Y10  \
	VMULPD Y8, Y10, Y14            \
	VADDPD Y14, Y6, Y6

// func mulAddTile4(d, a, b *float64, k, n, cols int)
//
// The register tile: four output rows by eight columns held in eight
// accumulators across the whole k loop, so each B vector loaded feeds four
// multiply-add pairs and b is streamed once per four rows of a instead of
// once per row. d[r*n+c] += sum over kk of a[r*k+kk] * b[kk*n+c] for r < 4,
// c < cols; cols is a multiple of 4, walked eight columns at a time with one
// four-column pass for an odd block. No zero skip: the caller has checked
// that a[0:4k] holds no zero. Per cell this is mulAddBlock4's sequence.
TEXT ·mulAddTile4(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), BX
	MOVQ cols+40(FP), R11
	SHLQ $3, BX              // row stride of d and b in bytes
	LEAQ (BX)(BX*2), R12
	MOVQ R8, R9
	SHLQ $3, R9              // row stride of a in bytes
	LEAQ (R9)(R9*2), R10
	CMPQ R11, $8
	JLT  tile4
tile8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(BX*1), Y2
	VMOVUPD 32(DI)(BX*1), Y3
	VMOVUPD (DI)(BX*2), Y4
	VMOVUPD 32(DI)(BX*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7
	MOVQ DX, R13
	MOVQ R8, CX
looptile8:
	TILE4_8
	ADDQ $8, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  looptile8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(BX*1)
	VMOVUPD Y3, 32(DI)(BX*1)
	VMOVUPD Y4, (DI)(BX*2)
	VMOVUPD Y5, 32(DI)(BX*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	SUBQ R9, SI              // back to a's first column
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, R11
	CMPQ R11, $8
	JGE  tile8
tile4:
	TESTQ R11, R11
	JZ   tiledone
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(BX*1), Y2
	VMOVUPD (DI)(BX*2), Y4
	VMOVUPD (DI)(R12*1), Y6
	MOVQ DX, R13
	MOVQ R8, CX
looptile4:
	TILE4_4
	ADDQ $8, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  looptile4
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(BX*1)
	VMOVUPD Y4, (DI)(BX*2)
	VMOVUPD Y6, (DI)(R12*1)
tiledone:
	VZEROUPPER
	RET

// TAILROW folds one k term into one output row unless its a is ±0. Y8 holds
// this k row's masked B lanes.
#define TAILROW(aop, acc, skip) \
	MOVQ aop, AX         \
	SHLQ $1, AX          \
	JZ   skip            \
	VBROADCASTSD aop, Y9 \
	VMULPD Y8, Y9, Y9    \
	VADDPD Y9, acc, acc  \
skip:

// func mulAddTail(d, a, b *float64, k, n, rows int, mask *float32)
//
// The masked tail, for the n mod 4 columns the blocks and the tile do not
// cover: d[r*n+c] += sum over kk with a[r*k+kk] != 0 of a[r*k+kk] * b[kk*n+c]
// for r < rows and the c < 4 lanes whose 64-bit word at mask is set. Loads
// and stores go through VMASKMOVPD, so nothing outside those lanes is read
// into a result or written. Rows go four at a time — four add chains in
// flight where the scalar loop had one per cell — then singly.
TEXT ·mulAddTail(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), BX
	MOVQ rows+40(FP), R11
	MOVQ mask+48(FP), AX
	VMOVDQU (AX), Y15
	SHLQ $3, BX              // row stride of d and b in bytes
	LEAQ (BX)(BX*2), R12
	MOVQ R8, R9
	SHLQ $3, R9              // row stride of a in bytes
	LEAQ (R9)(R9*2), R10
	CMPQ R11, $4
	JLT  tailrows1
tailrows4:
	VMASKMOVPD (DI), Y15, Y0
	VMASKMOVPD (DI)(BX*1), Y15, Y1
	VMASKMOVPD (DI)(BX*2), Y15, Y2
	VMASKMOVPD (DI)(R12*1), Y15, Y3
	MOVQ DX, R13
	MOVQ R8, CX
tailloop4:
	VMASKMOVPD (R13), Y15, Y8
	TAILROW((SI), Y0, tailskip40)
	TAILROW((SI)(R9*1), Y1, tailskip41)
	TAILROW((SI)(R9*2), Y2, tailskip42)
	TAILROW((SI)(R10*1), Y3, tailskip43)
	ADDQ $8, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  tailloop4
	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y1, Y15, (DI)(BX*1)
	VMASKMOVPD Y2, Y15, (DI)(BX*2)
	VMASKMOVPD Y3, Y15, (DI)(R12*1)
	ADDQ R10, SI             // past rows 1-3 of a: the next four rows
	LEAQ (DI)(BX*4), DI
	SUBQ $4, R11
	CMPQ R11, $4
	JGE  tailrows4
tailrows1:
	TESTQ R11, R11
	JZ   taildone
	VMASKMOVPD (DI), Y15, Y0
	MOVQ DX, R13
	MOVQ R8, CX
tailloop1:
	VMASKMOVPD (R13), Y15, Y8
	TAILROW((SI), Y0, tailskip10)
	ADDQ $8, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  tailloop1
	VMASKMOVPD Y0, Y15, (DI)
	ADDQ BX, DI
	DECQ R11
	JMP  tailrows1
taildone:
	VZEROUPPER
	RET

// func hasZero64(a *float64, n int) bool
//
// Reports whether any of a[0:n] is +0 or -0; n is a positive multiple of 4.
// Doubling a value's bits as an integer drops the sign, leaving zero for ±0
// only — the vector form of the blocks' SHLQ/JZ test.
TEXT ·hasZero64(SB), NOSPLIT, $0-17
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
zeroscan:
	VMOVDQU (SI), Y1
	VPADDQ Y1, Y1, Y1
	VPCMPEQQ Y0, Y1, Y1
	VPOR Y1, Y2, Y2
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ  zeroscan
	VPTEST Y2, Y2
	SETNE ret+16(FP)
	VZEROUPPER
	RET
