#include "textflag.h"

// The float32 matmul's masked tail: the n mod 8 output columns the fused
// lane blocks of kernels32fma_amd64.s do not cover, or all of them when
// n < 8. Their definition is matMulRows32's pure-Go tail loop — per cell the
// a != 0 terms in ascending k, a multiply that rounds and an add that rounds
// — so this file is unfused, VMULPS then VADDPS, and keeps the skip (the
// integer test is true for +0 and -0 only, like the Go comparison). Never
// contract a pair into a VFMADD*; TestUnfusedAsmHasNoFMA reads this file.

// TAILROW folds one k term into one output row unless its a is ±0. Y8 holds
// this k row's masked B lanes.
#define TAILROW(aop, acc, skip) \
	MOVL aop, AX         \
	SHLL $1, AX          \
	JZ   skip            \
	VBROADCASTSS aop, Y9 \
	VMULPS Y8, Y9, Y9    \
	VADDPS Y9, acc, acc  \
skip:

// func mulAddTail32(d, a, b *float32, k, n, rows int, mask *float32)
//
// d[r*n+c] += sum over kk with a[r*k+kk] != 0 of a[r*k+kk] * b[kk*n+c] for
// r < rows and the c < 8 lanes whose 32-bit word at mask is set. Loads and
// stores go through VMASKMOVPS, so nothing outside those lanes is read
// into a result or written. Rows go four at a time — four add chains in
// flight where the scalar loop had one per cell — then singly.
TEXT ·mulAddTail32(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), BX
	MOVQ rows+40(FP), R11
	MOVQ mask+48(FP), AX
	VMOVDQU (AX), Y15
	SHLQ $2, BX              // row stride of d and b in bytes
	LEAQ (BX)(BX*2), R12
	MOVQ R8, R9
	SHLQ $2, R9              // row stride of a in bytes
	LEAQ (R9)(R9*2), R10
	CMPQ R11, $4
	JLT  rows1
rows4:
	VMASKMOVPS (DI), Y15, Y0
	VMASKMOVPS (DI)(BX*1), Y15, Y1
	VMASKMOVPS (DI)(BX*2), Y15, Y2
	VMASKMOVPS (DI)(R12*1), Y15, Y3
	MOVQ DX, R13
	MOVQ R8, CX
loop4:
	VMASKMOVPS (R13), Y15, Y8
	TAILROW((SI), Y0, skip40)
	TAILROW((SI)(R9*1), Y1, skip41)
	TAILROW((SI)(R9*2), Y2, skip42)
	TAILROW((SI)(R10*1), Y3, skip43)
	ADDQ $4, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  loop4
	VMASKMOVPS Y0, Y15, (DI)
	VMASKMOVPS Y1, Y15, (DI)(BX*1)
	VMASKMOVPS Y2, Y15, (DI)(BX*2)
	VMASKMOVPS Y3, Y15, (DI)(R12*1)
	ADDQ R10, SI             // past rows 1-3 of a: the next four rows
	LEAQ (DI)(BX*4), DI
	SUBQ $4, R11
	CMPQ R11, $4
	JGE  rows4
rows1:
	TESTQ R11, R11
	JZ   done
	VMASKMOVPS (DI), Y15, Y0
	MOVQ DX, R13
	MOVQ R8, CX
loop1:
	VMASKMOVPS (R13), Y15, Y8
	TAILROW((SI), Y0, skip10)
	ADDQ $4, SI
	ADDQ BX, R13
	DECQ CX
	JNZ  loop1
	VMASKMOVPS Y0, Y15, (DI)
	ADDQ BX, DI
	DECQ R11
	JMP  rows1
done:
	VZEROUPPER
	RET
