#include "textflag.h"
#include "go_asm.h"

// AVX2 lanes for the float64 exp, σ and tanh (kernels64act.go) and for the
// three float64 loops of LSTMCellInto. The exp/σ/tanh lanes are a transcription of
// libm, four at a time: every arithmetic instruction below stands for the
// scalar instruction Go's math package executes at the same point, and none
// may be added, dropped, fused, unfused or reordered — the library's bits
// are the float64 tier's definition, and the differential test compares on
// math.Float64bits. Where the library branches on a value, the lanes compare
// and blend.
//
// The ONLY fused instructions in this file are the ten of EXP64, the ones
// archExp's avxfma path has: two VFNMADD231PD (the Cody–Waite reduction)
// and eight VFMADD213PD (seven Horner steps and the final x·y + 1).
// TestUnfusedAsmHasNoFMA counts them by mnemonic. σ's add and divide, tanh's
// rational and the cell loops round every operation on its own, as the Go
// compiler's baseline-amd64 code for those expressions does.
//
// Constants come from act64Tab, already broadcast; ROW addresses a row by
// the Go constant that indexes it.

#define ROW(r) (r*32)(R8)

// EXP64: Y2 = math.Exp(Y1) for finite |Y1| ≤ 700, archExp's avxfma path.
// Needs Y13 = 2, Y14 = 1. Clobbers Y3-Y6.
//
//	archExp (scalar)                         here
//	MULSD   x, $LOG2E                        VMULPD
//	CVTSD2SL → k (MXCSR rounding: to even)   VCVTPD2DQY
//	CVTSL2SD k                               VCVTDQ2PD
//	VFNMADD231SD $LN2U, k, x                 VFNMADD231PD
//	VFNMADD231SD $LN2L, k, x                 VFNMADD231PD
//	MULSD   $0.0625, x                       VMULPD
//	7 × VFMADD213SD c, x, p                  7 × VFMADD213PD
//	MULSD p, x; 3 × (VADDSD $2; MULSD)       VMULPD; 3 × (VADDPD; VMULPD)
//	VADDSD $2; VFMADD213SD $1, p, x          VADDPD; VFMADD213PD
//	ADDL $0x3FF, k; SHLQ $52; MULSD          VPMOVSXDQ; VPADDQ; VPSLLQ; VMULPD
#define EXP64 \
	VMULPD ROW(const_a64Log2e), Y1, Y3        \
	VCVTPD2DQY Y3, X4                         \ // k
	VCVTDQ2PD X4, Y3                          \
	VMOVAPD Y1, Y5                            \
	VFNMADD231PD ROW(const_a64Ln2U), Y3, Y5   \ // x -= k*ln2U
	VFNMADD231PD ROW(const_a64Ln2L), Y3, Y5   \ // x -= k*ln2L
	VMULPD ROW(const_a64Sixteenth), Y5, Y5    \
	VMOVUPD ROW(const_a64C8), Y6              \
	VFMADD213PD ROW(const_a64C7), Y5, Y6      \ // p = x*p + c
	VFMADD213PD ROW(const_a64C6), Y5, Y6      \
	VFMADD213PD ROW(const_a64C5), Y5, Y6      \
	VFMADD213PD ROW(const_a64C4), Y5, Y6      \
	VFMADD213PD ROW(const_a64C3), Y5, Y6      \
	VFMADD213PD ROW(const_a64Half), Y5, Y6    \
	VFMADD213PD Y14, Y5, Y6                   \
	VMULPD Y6, Y5, Y5                         \ // y = x*p
	VADDPD Y13, Y5, Y6                        \ // four times y = y*(y+2),
	VMULPD Y6, Y5, Y5                         \ // the last one fused with +1
	VADDPD Y13, Y5, Y6                        \
	VMULPD Y6, Y5, Y5                         \
	VADDPD Y13, Y5, Y6                        \
	VMULPD Y6, Y5, Y5                         \
	VADDPD Y13, Y5, Y6                        \
	VFMADD213PD Y14, Y6, Y5                   \ // y*(y+2) + 1
	VPMOVSXDQ X4, Y4                          \
	VPADDQ ROW(const_a64Bias), Y4, Y4         \
	VPSLLQ $52, Y4, Y4                        \ // 2^k
	VMULPD Y4, Y5, Y2

// SIGMOID64: Y1 = 1/(1+math.Exp(-Y0)). Needs Y12 = sign bit, Y13 = 2,
// Y14 = 1. Clobbers Y2-Y6.
#define SIGMOID64 \
	VXORPD Y12, Y0, Y1         \ // -x
	EXP64                      \
	VADDPD Y2, Y14, Y3         \ // 1 + e
	VDIVPD Y3, Y14, Y1           // 1 / (1 + e)

// math.tanh has three ranges; a lane needs the rational or the exponential,
// never both, so a vector whose lanes all fall on one side of 0.625 runs
// that side alone, and only a mixed vector runs both and blends. All need
// Y10 = |x|, Y12 = sign bit, Y13 = 2, Y14 = 1.

// TANHSMALL64: Y7 = x + x*s*P(s)/Q(s) with s = x*x, or x itself where x is
// ±0 (the rational would give +0 for -0), Go's left-to-right evaluation of
// math.tanh's default branch. Clobbers Y8, Y9, Y11.
#define TANHSMALL64 \
	VMULPD Y0, Y0, Y7                      \ // s = x*x
	VMOVUPD ROW(const_a64P0), Y8           \
	VMULPD Y7, Y8, Y8                      \ // (P0*s + P1)*s + P2
	VADDPD ROW(const_a64P1), Y8, Y8        \
	VMULPD Y7, Y8, Y8                      \
	VADDPD ROW(const_a64P2), Y8, Y8        \
	VADDPD ROW(const_a64Q0), Y7, Y9        \ // ((s + Q0)*s + Q1)*s + Q2
	VMULPD Y7, Y9, Y9                      \
	VADDPD ROW(const_a64Q1), Y9, Y9        \
	VMULPD Y7, Y9, Y9                      \
	VADDPD ROW(const_a64Q2), Y9, Y9        \
	VMULPD Y7, Y0, Y7                      \ // x*s
	VMULPD Y8, Y7, Y7                      \ // *P
	VDIVPD Y9, Y7, Y7                      \ // /Q
	VADDPD Y7, Y0, Y7                      \ // x + x*s*P/Q
	VXORPD Y11, Y11, Y11                   \
	VCMPPD $0x00, Y11, Y0, Y11             \ // x == 0
	VBLENDVPD Y11, Y0, Y7, Y7                 // returns x

// TANHBIG64: Y3 = 1 - 2/(math.Exp(2|x|)+1), or 1 where |x| > 0.5*MAXLOG,
// negated where x < 0: math.tanh's other two branches. Clobbers Y1, Y2,
// Y4-Y6, Y11.
#define TANHBIG64 \
	VADDPD Y10, Y10, Y1                    \ // 2*|x|
	EXP64                                  \
	VADDPD Y14, Y2, Y3                     \ // s + 1
	VDIVPD Y3, Y13, Y3                     \ // 2/(s + 1)
	VSUBPD Y3, Y14, Y3                     \ // 1 - 2/(s + 1)
	VCMPPD $0x1e, ROW(const_a64TanhMax), Y10, Y11 \ // |x| > 0.5*MAXLOG
	VBLENDVPD Y11, Y14, Y3, Y3             \ // ... is 1
	VANDPD Y12, Y0, Y11                    \
	VXORPD Y11, Y3, Y3                        // negated where x < 0

// LOAD64 loads the vector at element BX into Y0 with Y10 = |Y0| and jumps
// to done unless every lane is within the guard (a NaN is not): the lanes
// leave in front of such a vector, storing nothing of it, so that dst may
// be src, and return the count they stored, which is BX.
#define LOAD64(done) \
	VMOVUPD (SI)(BX*8), Y0  \
	VANDNPD Y0, Y12, Y10    \ // |x|
	VCMPPD $0x12, ROW(const_a64Guard), Y10, Y11 \ // |x| <= guard
	VMOVMSKPD Y11, AX       \
	CMPL AX, $15            \
	JNE  done

// PROLOGUE64 loads the arguments and the constants every body needs; n is a
// positive multiple of 4 and BX counts the elements stored.
#define PROLOGUE64 \
	MOVQ dst+0(FP), DI      \
	MOVQ src+8(FP), SI      \
	MOVQ n+16(FP), CX       \
	MOVQ tab+24(FP), R8     \
	VMOVUPD ROW(const_a64SignBit), Y12 \
	VMOVUPD ROW(const_a64Two), Y13     \
	VMOVUPD ROW(const_a64One), Y14     \
	XORQ BX, BX

// func sigmoidLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int
TEXT ·sigmoidLanes64(SB), NOSPLIT, $0-40
	PROLOGUE64
sigloop:
	LOAD64(sigdone)
	SIGMOID64
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  sigloop
sigdone:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET

// func expLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int
TEXT ·expLanes64(SB), NOSPLIT, $0-40
	PROLOGUE64
exploop:
	LOAD64(expdone)
	VMOVAPD Y0, Y1
	EXP64
	VMOVUPD Y2, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  exploop
expdone:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET

// func tanhLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int
TEXT ·tanhLanes64(SB), NOSPLIT, $0-40
	PROLOGUE64
tanhloop:
	LOAD64(tanhdone)
	VCMPPD $0x1d, ROW(const_a64TanhCut), Y10, Y15 // |x| >= 0.625
	VMOVMSKPD Y15, AX
	TESTL AX, AX
	JZ   tanhsmall
	TANHBIG64
	CMPL AX, $15
	JEQ  tanhstore
	TANHSMALL64
	VBLENDVPD Y15, Y3, Y7, Y3
	JMP  tanhstore
tanhsmall:
	TANHSMALL64
	VMOVAPD Y7, Y3
tanhstore:
	VMOVUPD Y3, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  tanhloop
tanhdone:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET

// The three elementwise loops of LSTMCellInto over whole vectors (the Go
// loop takes the n mod 4 tail): the pure-Go loop's operations in the pure-Go
// loop's order, every VADDPD and VMULPD rounding on its own. AX is the byte
// offset every operand shares; CX = n, a positive multiple of 4.

#define CELLLOOP64(BODY, loop) \
	XORQ AX, AX             \
loop:                       \
	BODY                    \
	ADDQ $32, AX            \
	SUBQ $4, CX             \
	JNZ  loop               \
	VZEROUPPER              \
	RET

#define GATESUM64 \
	VMOVUPD (SI)(AX*1), Y0  \
	VADDPD (DI)(AX*1), Y0, Y0 \ // in + rec
	VADDPD (DX)(AX*1), Y0, Y0 \ // + b
	VMOVUPD Y0, (DI)(AX*1)

// func lstmGateSumLanes64(gates, in, b *float64, n int)
//
// gates[j] = (in[j] + gates[j]) + b[j] for j < n.
TEXT ·lstmGateSumLanes64(SB), NOSPLIT, $0-32
	MOVQ gates+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	CELLLOOP64(GATESUM64, gsloop)

#define CELLUPDATE64 \
	VMOVUPD (SI)(AX*1), Y0  \
	VMOVUPD (R9)(AX*1), Y2  \
	VMULPD (DX)(AX*1), Y0, Y0 \ // f*c
	VMULPD (R10)(AX*1), Y2, Y2 \ // i*g
	VADDPD Y2, Y0, Y0       \
	VMOVUPD Y0, (DI)(AX*1)

// func lstmCellUpdateLanes64(cOut, fg, c, ig, gg *float64, n int)
//
// cOut[j] = fg[j]*c[j] + ig[j]*gg[j] for j < n, both products rounded before
// the add.
TEXT ·lstmCellUpdateLanes64(SB), NOSPLIT, $0-48
	MOVQ cOut+0(FP), DI
	MOVQ fg+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ ig+24(FP), R9
	MOVQ gg+32(FP), R10
	MOVQ n+40(FP), CX
	CELLLOOP64(CELLUPDATE64, culoop)

#define MULINTO64 \
	VMOVUPD (SI)(AX*1), Y0  \
	VMULPD (DI)(AX*1), Y0, Y0 \
	VMOVUPD Y0, (DI)(AX*1)

// func mulLanes64(dst, o *float64, n int)
//
// dst[j] = o[j] * dst[j] for j < n.
TEXT ·mulLanes64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ o+8(FP), SI
	MOVQ n+16(FP), CX
	CELLLOOP64(MULINTO64, mulloop)
