package tensor

import "math"

// Float64 exp, σ and tanh lanes: a four-wide transcription of libm, not a
// definition of their own. The float64 tier's activations are DEFINED by the
// library expressions 1/(1+math.Exp(−x)) and math.Tanh(x), and every
// softmax's exponentials (both element types) by math.Exp — every golden,
// snapshot and bundle hash in the repo is those bits — so the AVX2 lanes in
// kernels64act_amd64.s perform, per lane, exactly the operations the library
// performs on this machine, in the library's order:
//
//   - math.Exp on amd64 is Go's archExp (exp_amd64.s, Shibata's SIMD-shaped
//     algorithm: no tables, no data-dependent branch for finite arguments in
//     range). It has TWO paths, chosen once at process start from CPUID:
//     with AVX+FMA the reduction and the polynomial are fused
//     (two VFNMADD231SD, eight VFMADD213SD), without them (or under
//     GODEBUG=cpu.fma=off) every product and sum rounds on its own. The two
//     paths disagree on about 3 % of inputs, so the float64 tier's bits are
//     per path — libm's property, not this file's. The lanes transcribe the
//     fused path only.
//   - math.Tanh on amd64 is the portable Cephes body (tanh.go): a P/Q
//     rational below 0.625 in Go's left-to-right evaluation,
//     1 − 2/(Exp(2|x|)+1) above it, ±1 past 0.5·MAXLOG and x itself at ±0.
//     Go's amd64 compiler rounds every product of the rational before its add
//     (it fuses only an explicit math.FMA, at GOAMD64=v3 as at v1; both
//     checked with go1.24), and the lanes transcribe that. The language
//     would allow a compiler to fuse those Horner steps, which moves the bits
//     of about one input in 430 below 0.625.
//
// libm stays the definition in three ways. A vector holding any lane outside
// the transcribed range — non-finite, or |x| > act64Guard, which covers
// archExp's overflow and denormal exits — is not computed: the kernel stops
// in front of it and the scalar library loop computes those four elements.
// The n mod 4 tail is the same scalar loop (it is bit-equal, so no masked
// tail is needed). And the lanes run only if act64Probe, once at package init,
// has seen them reproduce the library's bits on a fixed vector chosen so
// that the other archExp path and a fused rational each fail it: on a host,
// toolchain or build where libm is something else, the lanes stand down and
// the library runs alone.

// act64Guard bounds the inputs the lanes compute. For |x| ≤ 700 archExp's
// exponent k = round(x·log₂e) stays within ±1010, so its (k+1023)<<52 scale
// is a normal number and neither its overflow exit (x > 709.78) nor its
// denormal exit (k ≤ −1023) is taken.
const act64Guard = 700

// The constants of archExp (exp_amd64.s), as typed there.
const (
	act64Log2e = 1.4426950408889634073599246810018920
	act64Ln2U  = 0.69314718055966295651160180568695068359375
	act64Ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	act64C8    = 2.4801587301587301587e-5
	act64C7    = 1.9841269841269841270e-4
	act64C6    = 1.3888888888888888889e-3
	act64C5    = 8.3333333333333333333e-3
	act64C4    = 4.1666666666666666667e-2
	act64C3    = 1.6666666666666666667e-1
	act64Bias  = 0x3FF
)

// The constants of math.tanh (tanh.go), as typed there.
const (
	act64TanhMax = 0.5 * 8.8029691931113054295988e+01 // 0.5·MAXLOG
	act64TanhCut = 0.625
	act64P0      = -9.64399179425052238628e-1
	act64P1      = -9.92877231001918586564e1
	act64P2      = -1.61468768441708447952e3
	act64Q0      = 1.12811678491632931402e2
	act64Q1      = 2.23548839060100448583e3
	act64Q2      = 4.84406305325125486048e3
)

// Row indices of act64Tab; kernels64act_amd64.s addresses the rows by the
// same numbers (32 bytes apiece).
const (
	a64Log2e = iota
	a64Ln2U
	a64Ln2L
	a64Sixteenth
	a64C8
	a64C7
	a64C6
	a64C5
	a64C4
	a64C3
	a64Half
	a64One
	a64Two
	a64Bias
	a64SignBit
	a64Guard
	a64TanhMax
	a64TanhCut
	a64P0
	a64P1
	a64P2
	a64Q0
	a64Q1
	a64Q2
	act64Rows
)

// act64Tab holds every constant of the lane kernels broadcast to four lanes
// (AVX2 arithmetic takes a full-width memory operand, not a scalar one).
var act64Tab = func() (tab [act64Rows][4]float64) {
	for row, v := range [act64Rows]float64{
		a64Log2e: act64Log2e, a64Ln2U: act64Ln2U, a64Ln2L: act64Ln2L, a64Sixteenth: 0.0625,
		a64C8: act64C8, a64C7: act64C7, a64C6: act64C6, a64C5: act64C5, a64C4: act64C4, a64C3: act64C3,
		a64Half: 0.5, a64One: 1, a64Two: 2,
		a64Bias: math.Float64frombits(act64Bias), a64SignBit: math.Float64frombits(1 << 63),
		a64Guard: act64Guard, a64TanhMax: act64TanhMax, a64TanhCut: act64TanhCut,
		a64P0: act64P0, a64P1: act64P1, a64P2: act64P2, a64Q0: act64Q0, a64Q1: act64Q1, a64Q2: act64Q2,
	} {
		for lane := range tab[row] {
			tab[row][lane] = v
		}
	}
	return tab
}()

// sigmoid64 is the float64 σ's definition, the library expression; tanh's
// is math.Tanh.
func sigmoid64(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// act64ProbeInputs is the fixed vector act64Probe runs through the three lane
// kernels, each group there for a reason TestAct64ProbeDiscriminates checks:
// twelve inputs on which archExp's fused and unfused paths give a different
// σ, eight on which they give a different tanh above 0.625, eight below
// 0.625 on which a fused evaluation of tanh's rational differs from the
// unfused one (about one input in 430 does), then the branch points and a
// few ordinary values of both signs.
var act64ProbeInputs = [...]float64{
	0.517019, -3.147154, -1.700842, 0.19377, -2.5713, -6.015179,
	-1.575177, -0.481215, -3.039884, -1.994264, -2.293735, 0.986736,

	1.246068, 0.738401, 1.27383, 0.805038, 0.960684, 0.905695, -0.626952, -1.26048,

	0.309856, -0.531112, -0.517435, -0.609798, 0.398245, -0.507968, -0.520367, -0.622777,

	0, math.Float64frombits(1 << 63), 1e-300, -act64TanhCut, act64TanhCut, 0.6249999999999999,
	act64TanhMax, -act64TanhMax, 44.5, -50, act64Guard, -act64Guard,
	0.1, -0.25, 1, -2.5, 5, -10, 20, -30,
}

// act64ProbeOK records whether the lanes reproduced libm on the probe
// vector when the package was initialised; false without lane kernels.
var act64ProbeOK = useLaneKernels && act64Probe()

// act64Lanes reports whether the float64 exp/σ/tanh lanes may run: the CPU
// has the lanes (or a test has switched them on) and the probe confirmed
// them.
func act64Lanes() bool { return useLaneKernels && act64ProbeOK }

// act64Probe runs the probe vector through the three lane kernels and
// reports whether every element came out math.Float64bits-equal to the
// library.
func act64Probe() bool {
	in := act64ProbeInputs
	var ex, sig, tanh [len(in)]float64
	const n = len(in) &^ 3
	if expLanes64(&ex[0], &in[0], n, &act64Tab) != n || sigmoidLanes64(&sig[0], &in[0], n, &act64Tab) != n ||
		tanhLanes64(&tanh[0], &in[0], n, &act64Tab) != n {
		return false
	}
	for i, x := range in[:n] {
		if math.Float64bits(ex[i]) != math.Float64bits(math.Exp(x)) ||
			math.Float64bits(sig[i]) != math.Float64bits(sigmoid64(x)) ||
			math.Float64bits(tanh[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// sigmoidSlice64 sets dst[i] = σ(src[i]); dst and src have equal length and
// may be the same slice. The lanes take the whole vectors and return how
// many leading elements they computed; short of all, the next vector holds a
// lane outside their range, the library computes those four and the lanes
// resume behind them. The library also takes the n mod 4 tail, and
// everything when the lanes are off.
func sigmoidSlice64(dst, src []float64) {
	dst = dst[:len(src)]
	whole := 0
	if act64Lanes() {
		whole = len(src) &^ 3
	}
	i := 0
	for i < whole {
		i += sigmoidLanes64(&dst[i], &src[i], whole-i, &act64Tab)
		for end := min(i+4, whole); i < end; i++ {
			dst[i] = sigmoid64(src[i])
		}
	}
	for ; i < len(src); i++ {
		dst[i] = sigmoid64(src[i])
	}
}

// tanhSlice64 is sigmoidSlice64 for math.Tanh.
func tanhSlice64(dst, src []float64) {
	dst = dst[:len(src)]
	whole := 0
	if act64Lanes() {
		whole = len(src) &^ 3
	}
	i := 0
	for i < whole {
		i += tanhLanes64(&dst[i], &src[i], whole-i, &act64Tab)
		for end := min(i+4, whole); i < end; i++ {
			dst[i] = math.Tanh(src[i])
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// expSlice64 is sigmoidSlice64 for math.Exp.
func expSlice64(dst, src []float64) {
	dst = dst[:len(src)]
	whole := 0
	if act64Lanes() {
		whole = len(src) &^ 3
	}
	i := 0
	for i < whole {
		i += expLanes64(&dst[i], &src[i], whole-i, &act64Tab)
		for end := min(i+4, whole); i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
