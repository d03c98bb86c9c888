package tensor

import "math"

// Float32 σ and tanh: the repo's own definitions, the one place besides the
// matmul kernels where the float32 tier has code of its own. The float64
// tier's transcendentals are defined by libm (math.Exp, math.Tanh: bitwise
// what they always were, per libm path — kernels64act.go, whose lanes
// transcribe libm and define nothing); the float32 tier used to pay for the
// same correctly-rounded doubles per element and round them away, which cost
// the student more than its matmuls. The float32 stack promises an error
// envelope, not bits against libm — but it does promise determinism, so the
// functions below are written to have exactly one value per input on every
// machine:
//
//   - every product and sum is a float32 operation rounded once, written
//     with an explicit float32(...) around each product so no architecture
//     may fuse a multiply into the following add (the Go spec forbids fusing
//     across an explicit conversion);
//   - range reduction and scaling use only adds, multiplies and integer
//     shifts of the bit pattern — no float→int conversion (whose result for
//     NaN is implementation-defined) and no table lookups;
//   - the AVX2 lanes in kernels32act_amd64.s perform the same operations in
//     the same order with VMULPS/VADDPS/VSUBPS/VDIVPS (never VFMADD*), so
//     they are math.Float32bits-equal to these bodies for every non-NaN
//     input (TestAct32LanesMatchPureGo sweeps the bit patterns). A NaN input
//     gives a NaN in both; its payload is outside the contract.
//
// These bodies are the reference the lanes are tested against and the only
// path where useLaneKernels is false. Accuracy against the float64 library
// value rounded to float32 is pinned by TestAct32Envelope: σ within 2 ulp,
// tanh within 2 ulp, over every float32 including subnormal results, with
// saturation to exactly 0, 1 and ±1.

// The constants of exp32, shared with the assembly through act32Tab: the
// lanes broadcast these exact float32 values, so the two bodies cannot drift
// apart by a retyped digit.
const (
	act32Log2e = 1.44269504088896341 // log₂e: y·log₂e picks the power of two
	// ln 2 split so that n·ln2Hi is exact for every |n| < 2¹⁵ (ln2Hi has
	// nine significant bits): y − n·ln2Hi − n·ln2Lo loses nothing to
	// cancellation.
	act32Ln2Hi = 0.693359375
	act32Ln2Lo = -2.12194440e-4
	// Adding 1.5·2²³ to |t| < 2²² rounds t to the nearest integer (ties to
	// even) in the low mantissa bits; subtracting it again leaves that
	// integer as a float. The extra act32ExpBias rides in those same low
	// bits, so shifting the sum's bit pattern left by 23 yields the float
	// 2^(n+act32ExpShift) directly, with no integer subtract.
	act32ExpBias  = 127 + act32ExpShift
	act32ExpShift = 30
	act32Magic    = 1<<23 + 1<<22 + act32ExpBias
	// 2^-act32ExpShift undoes the shift in one final multiply. The shift
	// keeps the first scaling product a normal number for every n ≥ −152,
	// so a subnormal result is rounded exactly once, by that last multiply:
	// gradual underflow instead of a cliff at 2⁻¹²⁶.
	act32Unshift = 1.0 / (1 << act32ExpShift)
	// eʳ on |r| ≤ ½ln2 is 1 + r + r²·(E0 + E1·r + … + E5·r⁵).
	act32E0 = 5.0000001201e-1
	act32E1 = 1.6666665459e-1
	act32E2 = 4.1665795894e-2
	act32E3 = 8.3334519073e-3
	act32E4 = 1.3981999507e-3
	act32E5 = 1.9875691500e-4
	// σ saturates to exactly 0 below −act32SigmoidClamp (e⁻¹⁰⁵ < 2⁻¹⁵⁰
	// rounds to zero) and tanh to exactly ±1 beyond ±act32TanhClamp
	// (1 ∓ e⁻²⁰ rounds to 1); clamping there also maps ±Inf onto the
	// saturated value without a special case.
	act32SigmoidClamp = 105
	act32TanhClamp    = 10
	// Below act32TanhCut, (1−e)/(1+e) would cancel; tanh a is instead the
	// odd polynomial a + a·a²·(T0 + T1·a² + … + T4·a⁸).
	act32TanhCut = 0.625
	act32T0      = -3.33332819422e-1
	act32T1      = 1.33314422036e-1
	act32T2      = -5.37397155531e-2
	act32T3      = 2.06390887954e-2
	act32T4      = -5.70498872745e-3

	act32SignBit = 1 << 31
)

// exp32 returns eʸ for y in [−act32SigmoidClamp, 0] (NaN for NaN): Cody–Waite
// reduction y = n·ln2 + r, a degree-7 polynomial for eʳ, and the scaling by
// 2ⁿ built from the rounded sum's own bits.
func exp32(y float32) float32 {
	tm := float32(y*act32Log2e) + act32Magic
	n := tm - act32Magic
	r := y - float32(n*act32Ln2Hi)
	r = r - float32(n*act32Ln2Lo)
	p := float32(act32E5*r) + act32E4
	p = float32(p*r) + act32E3
	p = float32(p*r) + act32E2
	p = float32(p*r) + act32E1
	p = float32(p*r) + act32E0
	p = float32(p*float32(r*r)) + r
	p = p + 1
	scale := math.Float32frombits(math.Float32bits(tm) << 23)
	return float32(p*scale) * act32Unshift
}

// sigmoid32 returns σ(x) = 1/(1+e⁻ˣ) in the form that never overflows: with
// e = e^−|x| in [0, 1], σ is 1/(1+e) for x ≥ 0 and e/(1+e) for x < 0.
func sigmoid32(x float32) float32 {
	b := math.Float32bits(x)
	y := math.Float32frombits(b | act32SignBit)
	if y < -act32SigmoidClamp {
		y = -act32SigmoidClamp
	}
	e := exp32(y)
	num := float32(1)
	if b&act32SignBit != 0 {
		num = e
	}
	return num / (1 + e)
}

// tanh32 returns tanh x: the odd polynomial below act32TanhCut,
// (1−e)/(1+e) with e = e^−2|x| above it, and x's sign put back on the bit
// pattern (so tanh −0 is −0).
func tanh32(x float32) float32 {
	b := math.Float32bits(x)
	a := math.Float32frombits(b &^ act32SignBit)
	if a > act32TanhClamp {
		a = act32TanhClamp
	}
	var r float32
	if a < act32TanhCut {
		z := float32(a * a)
		p := float32(act32T4*z) + act32T3
		p = float32(p*z) + act32T2
		p = float32(p*z) + act32T1
		p = float32(p*z) + act32T0
		r = float32(float32(p*z)*a) + a
	} else {
		e := exp32(float32(a * -2))
		r = (1 - e) / (1 + e)
	}
	return math.Float32frombits(math.Float32bits(r) | b&act32SignBit)
}

// sigmoidSlice32 sets dst[i] = σ(src[i]); dst and src have equal length and
// may be the same slice.
func sigmoidSlice32(dst, src []float32) {
	if useLaneKernels && len(src) > 0 {
		sigmoidLanes32(&dst[0], &src[0], len(src), &act32Tab)
		return
	}
	for i, v := range src {
		dst[i] = sigmoid32(v)
	}
}

// tanhSlice32 sets dst[i] = tanh(src[i]); dst and src have equal length and
// may be the same slice.
func tanhSlice32(dst, src []float32) {
	if useLaneKernels && len(src) > 0 {
		tanhLanes32(&dst[0], &src[0], len(src), &act32Tab)
		return
	}
	for i, v := range src {
		dst[i] = tanh32(v)
	}
}

// Row indices of act32Tab; kernels32act_amd64.s addresses the rows by the
// same numbers (32 bytes apiece).
const (
	actLog2e = iota
	actMagic
	actLn2Hi
	actLn2Lo
	actE5
	actE4
	actE3
	actE2
	actE1
	actE0
	actOne
	actUnshift
	actSignBit
	actSigmoidClamp
	actTanhClamp
	actTanhCut
	actMinusTwo
	actT4
	actT3
	actT2
	actT1
	actT0
	actTailMask // two rows: eight all-ones words, then eight zero words
	actRows     = actTailMask + 2
)

// act32Tab holds every constant of the lane kernels broadcast to eight
// lanes (AVX2 arithmetic takes a full-width memory operand, not a scalar
// one), built from the constants the pure-Go bodies use. The last two rows
// are the tail mask: a 32-byte load starting 4·(8−k) bytes into them has
// its first k words set.
var act32Tab = func() (tab [actRows][8]float32) {
	for row, v := range [actRows]float32{
		actLog2e: act32Log2e, actMagic: act32Magic, actLn2Hi: act32Ln2Hi, actLn2Lo: act32Ln2Lo,
		actE5: act32E5, actE4: act32E4, actE3: act32E3, actE2: act32E2, actE1: act32E1, actE0: act32E0,
		actOne: 1, actUnshift: act32Unshift, actSignBit: math.Float32frombits(act32SignBit),
		actSigmoidClamp: -act32SigmoidClamp, actTanhClamp: act32TanhClamp, actTanhCut: act32TanhCut,
		actMinusTwo: -2,
		actT4:       act32T4, actT3: act32T3, actT2: act32T2, actT1: act32T1, actT0: act32T0,
		actTailMask: math.Float32frombits(^uint32(0)),
	} {
		for lane := range tab[row] {
			tab[row][lane] = v
		}
	}
	return tab
}()
