#include "textflag.h"
#include "go_asm.h"

// AVX2 lanes for the float32 σ and tanh of kernels32act.go. Every lane runs
// the pure-Go body's operations in the pure-Go body's order, each a single
// correctly rounded float32 operation: VMULPS, VADDPS, VSUBPS and VDIVPS are
// what the compiler's MULSS, ADDSS, SUBSS and DIVSS are, eight at a time.
// Never contract a VMULPS/VADDPS pair into a VFMADD*: the dropped rounding
// would separate the lanes from the Go bodies, and the Go bodies are the
// definition. Where the Go bodies branch (clamps, the sign of x, tanh's two
// ranges) the lanes compute both sides and select, with VMAXPS/VMINPS
// operands ordered so that a NaN passes through as it does in Go's
// comparisons.
//
// Constants come from act32Tab (kernels32act.go), already broadcast; ROW
// addresses a row by the Go constant that indexes it.

#define ROW(r) (r*32)(R8)

// EXP: Y2 = exp32(Y1). Needs Y13 = magic, Y14 = 1. Clobbers Y3-Y6.
#define EXP \
	VMULPS ROW(const_actLog2e), Y1, Y3 \
	VADDPS Y13, Y3, Y3                 \ // tm = t + magic
	VSUBPS Y13, Y3, Y4                 \ // n = tm - magic
	VMULPS ROW(const_actLn2Hi), Y4, Y5 \
	VSUBPS Y5, Y1, Y5                  \ // r = y - n*ln2Hi
	VMULPS ROW(const_actLn2Lo), Y4, Y4 \
	VSUBPS Y4, Y5, Y5                  \ // r -= n*ln2Lo
	VMULPS ROW(const_actE5), Y5, Y4    \
	VADDPS ROW(const_actE4), Y4, Y4    \
	VMULPS Y5, Y4, Y4                  \
	VADDPS ROW(const_actE3), Y4, Y4    \
	VMULPS Y5, Y4, Y4                  \
	VADDPS ROW(const_actE2), Y4, Y4    \
	VMULPS Y5, Y4, Y4                  \
	VADDPS ROW(const_actE1), Y4, Y4    \
	VMULPS Y5, Y4, Y4                  \
	VADDPS ROW(const_actE0), Y4, Y4    \
	VMULPS Y5, Y5, Y6                  \ // r*r
	VMULPS Y6, Y4, Y4                  \
	VADDPS Y5, Y4, Y4                  \ // p*r² + r
	VADDPS Y14, Y4, Y4                 \ // + 1
	VPSLLD $23, Y3, Y3                 \ // bits(tm)<<23 = 2^(n+shift)
	VMULPS Y3, Y4, Y4                  \
	VMULPS ROW(const_actUnshift), Y4, Y2

// SIGMOID: Y1 = sigmoid32(Y0). Needs Y12 = sign bit, Y13 = magic, Y14 = 1,
// Y15 = -clamp. Clobbers Y2-Y6.
#define SIGMOID \
	VORPS  Y12, Y0, Y1         \ // y = -|x|
	VMAXPS Y1, Y15, Y1         \ // -clamp > y ? -clamp : y
	EXP                        \
	VADDPS Y14, Y2, Y3         \ // 1 + e
	VBLENDVPS Y0, Y2, Y14, Y4  \ // x negative ? e : 1
	VDIVPS Y3, Y4, Y1

// TANH: Y1 = tanh32(Y0). Needs Y11 = cut, Y12 = sign bit, Y13 = magic,
// Y14 = 1, Y15 = clamp. Clobbers Y2-Y8, Y10.
#define TANH \
	VANDNPS Y0, Y12, Y10               \ // a = |x|
	VMINPS  Y10, Y15, Y10              \ // clamp < a ? clamp : a
	VMULPS  Y10, Y10, Y7               \ // z = a*a
	VMULPS  ROW(const_actT4), Y7, Y8   \
	VADDPS  ROW(const_actT3), Y8, Y8   \
	VMULPS  Y7, Y8, Y8                 \
	VADDPS  ROW(const_actT2), Y8, Y8   \
	VMULPS  Y7, Y8, Y8                 \
	VADDPS  ROW(const_actT1), Y8, Y8   \
	VMULPS  Y7, Y8, Y8                 \
	VADDPS  ROW(const_actT0), Y8, Y8   \
	VMULPS  Y7, Y8, Y8                 \
	VMULPS  Y10, Y8, Y8                \
	VADDPS  Y10, Y8, Y8                \ // small = p*z*a + a
	VMULPS  ROW(const_actMinusTwo), Y10, Y1 \
	EXP                                \
	VSUBPS  Y2, Y14, Y3                \ // 1 - e
	VADDPS  Y14, Y2, Y4                \ // 1 + e
	VDIVPS  Y4, Y3, Y3                 \
	VCMPPS  $0x11, Y11, Y10, Y5        \ // a < cut
	VBLENDVPS Y5, Y8, Y3, Y1           \
	VANDPS  Y12, Y0, Y2                \
	VORPS   Y2, Y1, Y1                   // x's sign back on

// LANES runs BODY (Y0 in, Y1 out) over n floats: full vectors, then one
// masked vector whose mask is read 4*(8 - n mod 8) bytes into the tail-mask
// rows. Masked-off lanes load as 0, compute a value nobody sees, and are
// not stored.
#define LANES(BODY, loop, tail, done) \
	MOVQ dst+0(FP), DI      \
	MOVQ src+8(FP), SI      \
	MOVQ n+16(FP), CX       \
	MOVQ tab+24(FP), R8     \
	VMOVUPS ROW(const_actSignBit), Y12 \
	VMOVUPS ROW(const_actMagic), Y13   \
	VMOVUPS ROW(const_actOne), Y14     \
	CMPQ CX, $8             \
	JLT  tail               \
loop:                       \
	VMOVUPS (SI), Y0        \
	BODY                    \
	VMOVUPS Y1, (DI)        \
	ADDQ $32, SI            \
	ADDQ $32, DI            \
	SUBQ $8, CX             \
	CMPQ CX, $8             \
	JGE  loop               \
tail:                       \
	TESTQ CX, CX            \
	JZ   done               \
	MOVQ $8, AX             \
	SUBQ CX, AX             \
	VMOVDQU (const_actTailMask*32)(R8)(AX*4), Y9 \
	VMASKMOVPS (SI), Y9, Y0 \
	BODY                    \
	VMASKMOVPS Y1, Y9, (DI) \
done:                       \
	VZEROUPPER              \
	RET

// func sigmoidLanes32(dst, src *float32, n int, tab *[actRows][8]float32)
TEXT ·sigmoidLanes32(SB), NOSPLIT, $0-32
	MOVQ tab+24(FP), R8
	VMOVUPS ROW(const_actSigmoidClamp), Y15
	LANES(SIGMOID, sigloop, sigtail, sigdone)

// func tanhLanes32(dst, src *float32, n int, tab *[actRows][8]float32)
TEXT ·tanhLanes32(SB), NOSPLIT, $0-32
	MOVQ tab+24(FP), R8
	VMOVUPS ROW(const_actTanhClamp), Y15
	VMOVUPS ROW(const_actTanhCut), Y11
	LANES(TANH, tanhloop, tanhtail, tanhdone)

// The three elementwise loops of LSTMCellInto, eight lanes at a time with
// the masked tail. Each is the pure-Go loop's operations in the pure-Go
// loop's order — every VADDPS and VMULPS rounds on its own, as the explicit
// conversions in into.go make the Go code do. AX is the byte offset every
// operand shares; R8 = tab. A body takes its load and store as parameters:
// whole vectors, or the lanes of the tail mask in Y9.

#define LDFULL(mem, reg) VMOVUPS mem, reg
#define STFULL(reg, mem) VMOVUPS reg, mem
#define LDMASK(mem, reg) VMASKMOVPS mem, Y9, reg
#define STMASK(reg, mem) VMASKMOVPS reg, Y9, mem

// CELLLOOP runs BODY over whole vectors at offset AX, then over the last
// n mod 8 lanes; CX = n on entry.
#define CELLLOOP(BODY, loop, tail, done) \
	XORQ AX, AX             \
	CMPQ CX, $8             \
	JLT  tail               \
loop:                       \
	BODY(LDFULL, STFULL)    \
	ADDQ $32, AX            \
	SUBQ $8, CX             \
	CMPQ CX, $8             \
	JGE  loop               \
tail:                       \
	TESTQ CX, CX            \
	JZ   done               \
	MOVQ $8, BX             \
	SUBQ CX, BX             \
	VMOVDQU (const_actTailMask*32)(R8)(BX*4), Y9 \
	BODY(LDMASK, STMASK)    \
done:                       \
	VZEROUPPER              \
	RET

#define GATESUM(LD, ST) \
	LD((SI)(AX*1), Y0)      \
	LD((DI)(AX*1), Y1)      \
	LD((DX)(AX*1), Y2)      \
	VADDPS Y1, Y0, Y0       \ // in + rec
	VADDPS Y2, Y0, Y0       \ // + b
	ST(Y0, (DI)(AX*1))

// func lstmGateSumLanes32(gates, in, b *float32, n int, tab *[actRows][8]float32)
//
// gates[j] = (in[j] + gates[j]) + b[j] for j < n.
TEXT ·lstmGateSumLanes32(SB), NOSPLIT, $0-40
	MOVQ gates+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ tab+32(FP), R8
	CELLLOOP(GATESUM, gsloop, gstail, gsdone)

#define CELLUPDATE(LD, ST) \
	LD((SI)(AX*1), Y0)      \
	LD((DX)(AX*1), Y1)      \
	LD((R9)(AX*1), Y2)      \
	LD((R10)(AX*1), Y3)     \
	VMULPS Y1, Y0, Y0       \ // f*c
	VMULPS Y3, Y2, Y2       \ // i*g
	VADDPS Y2, Y0, Y0       \
	ST(Y0, (DI)(AX*1))

// func lstmCellUpdateLanes32(cOut, fg, c, ig, gg *float32, n int, tab *[actRows][8]float32)
//
// cOut[j] = fg[j]*c[j] + ig[j]*gg[j] for j < n, both products rounded before
// the add.
TEXT ·lstmCellUpdateLanes32(SB), NOSPLIT, $0-56
	MOVQ cOut+0(FP), DI
	MOVQ fg+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ ig+24(FP), R9
	MOVQ gg+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ tab+48(FP), R8
	CELLLOOP(CELLUPDATE, culoop, cutail, cudone)

#define MULINTO(LD, ST) \
	LD((SI)(AX*1), Y0)      \
	LD((DI)(AX*1), Y1)      \
	VMULPS Y1, Y0, Y0       \
	ST(Y0, (DI)(AX*1))

// func mulLanes32(dst, o *float32, n int, tab *[actRows][8]float32)
//
// dst[j] = o[j] * dst[j] for j < n.
TEXT ·mulLanes32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ o+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8
	CELLLOOP(MULINTO, mulloop, multail, muldone)
