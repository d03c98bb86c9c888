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
// The Block kernels serve matMulRows and keep its a == 0 skip (the integer
// test below is true for +0 and -0 only, like the Go comparison), so not
// even the sign of a zero differs. The Panel kernels serve matMulPackedRows,
// which has no skip.

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

// func mulAddPanels16(d, a, p *float64, k int)
//
// d[0:16] += sum over kk of a[kk] * (row kk of four consecutive packed
// 4-column panels at p, p+4k, p+8k, p+12k), each panel advancing 32 bytes
// per k step. No zero skip.
TEXT ·mulAddPanels16(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ CX, BX
	SHLQ $5, BX
	LEAQ (DX)(BX*1), R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
looppanels16:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VMULPD (R8), Y4, Y6
	VMULPD (R9), Y4, Y7
	VMULPD (R10), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  looppanels16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func mulAddPanel4(d, a, p *float64, k int)
//
// mulAddPanels16 over one packed 4-column panel: d[0:4].
TEXT ·mulAddPanel4(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ k+24(FP), CX
	VMOVUPD (DI), Y0
looppanel4:
	VBROADCASTSD (SI), Y4
	VMULPD (DX), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  looppanel4
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET
