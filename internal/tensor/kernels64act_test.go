package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// act64Fns pairs each float64 activation with its slice entry point (lanes
// or the library, whichever act64Lanes selects), the library expression that
// defines it and its lane kernel.
var act64Fns = []struct {
	name  string
	slice func(dst, src []float64)
	libm  func(float64) float64
	lanes func(dst, src *float64, n int, tab *[act64Rows][4]float64) int
}{
	{"sigmoid", sigmoidSlice64, sigmoid64, sigmoidLanes64},
	{"tanh", tanhSlice64, math.Tanh, tanhLanes64},
}

// --- Pure-Go transcriptions of libm's paths -----------------------------------
//
// What the lanes transcribe, written once more in Go so that the tests can
// evaluate the path this process's libm is NOT on: math.FMA where the
// library's instruction is fused, an explicitly converted product where it
// is not.

func mulAdd(a, b, c float64, fused bool) float64 {
	if fused {
		return math.FMA(a, b, c)
	}
	return float64(a*b) + c
}

// archExpGo is archExp (exp_amd64.s) for finite |x| ≤ act64Guard: its avxfma
// path when fused, its SSE2 path otherwise.
func archExpGo(x float64, fused bool) float64 {
	k := math.RoundToEven(act64Log2e * x)
	r := mulAdd(-k, act64Ln2U, x, fused)
	r = mulAdd(-k, act64Ln2L, r, fused)
	r *= 0.0625
	p := float64(act64C8)
	for _, c := range []float64{act64C7, act64C6, act64C5, act64C4, act64C3, 0.5, 1} {
		p = mulAdd(r, p, c, fused)
	}
	y := r * p
	for i := 0; i < 3; i++ {
		y *= y + 2
	}
	y = mulAdd(y+2, y, 1, fused)
	return y * math.Float64frombits(uint64(int64(k)+0x3FF)<<52)
}

func sigmoidGo(x float64, fusedExp bool) float64 { return 1 / (1 + archExpGo(-x, fusedExp)) }

// tanhGo is math.tanh (tanh.go) for finite |x| ≤ act64Guard over archExpGo;
// fusedRational evaluates the P/Q Horner steps fused, as the language would
// let a compiler do (Go's amd64 compiler does not, today).
func tanhGo(x float64, fusedExp, fusedRational bool) float64 {
	z := math.Abs(x)
	switch {
	case z > act64TanhMax:
		if x < 0 {
			return -1
		}
		return 1
	case z >= act64TanhCut:
		s := archExpGo(2*z, fusedExp)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
		return z
	}
	if x == 0 {
		return x
	}
	s := x * x
	num := mulAdd(mulAdd(act64P0, s, act64P1, fusedRational), s, act64P2, fusedRational)
	den := mulAdd(mulAdd(s+act64Q0, s, act64Q1, fusedRational), s, act64Q2, fusedRational)
	return x + x*s*num/den
}

// libmPath reports which transcription this process's libm matches on every
// probe input: whether math.Exp takes archExp's fused path and whether
// math.Tanh's rational was compiled fused. ok is false when no combination
// matches, which means the library is no longer what the lanes transcribe.
func libmPath() (fusedExp, fusedRational, ok bool) {
	for _, fusedExp := range []bool{true, false} {
		for _, fusedRational := range []bool{false, true} {
			match := true
			for _, x := range act64ProbeInputs {
				if math.Float64bits(sigmoid64(x)) != math.Float64bits(sigmoidGo(x, fusedExp)) ||
					math.Float64bits(math.Tanh(x)) != math.Float64bits(tanhGo(x, fusedExp, fusedRational)) {
					match = false
					break
				}
			}
			if match {
				return fusedExp, fusedRational, true
			}
		}
	}
	return false, false, false
}

// trustAct64Lanes switches the float64 activation lanes on for the rest of
// the test even where the probe said no, provided libm is on the path they
// transcribe: the differential tests judge the lanes themselves, not the
// probe's opinion of them (a broken kernel fails the probe, stands down, and
// would otherwise pass every comparison as the library).
// TestAct64ProbeFollowsLibm judges the probe. On any other libm path the
// lanes stay off and the tests pin the library against itself.
func trustAct64Lanes(t testing.TB) {
	fusedExp, fusedRational, ok := libmPath()
	if !laneKernelsAvailable || !ok || !fusedExp || fusedRational {
		return
	}
	prev := act64ProbeOK
	act64ProbeOK = true
	t.Cleanup(func() { act64ProbeOK = prev })
}

// TestAct64ProbeDiscriminates proves the probe vector can tell libm's paths
// apart: the fused and unfused archExp transcriptions disagree on a probe
// element through σ and through tanh's exponential branch, and the fused and
// unfused rational disagree on one below 0.625 — so a process whose libm is
// on another path than the lanes' cannot pass the probe. It also pins the
// vector's shape: a whole number of vectors, every element inside the guard.
func TestAct64ProbeDiscriminates(t *testing.T) {
	if len(act64ProbeInputs)%4 != 0 {
		t.Fatalf("probe vector has %d elements, want a multiple of 4", len(act64ProbeInputs))
	}
	var sig, tanhBig, tanhSmall int
	for _, x := range act64ProbeInputs {
		if !(math.Abs(x) <= act64Guard) {
			t.Fatalf("probe input %v is outside the lanes' range", x)
		}
		if math.Float64bits(sigmoidGo(x, true)) != math.Float64bits(sigmoidGo(x, false)) {
			sig++
		}
		if math.Float64bits(tanhGo(x, true, false)) != math.Float64bits(tanhGo(x, false, false)) {
			tanhBig++
		}
		if math.Float64bits(tanhGo(x, true, false)) != math.Float64bits(tanhGo(x, true, true)) {
			tanhSmall++
		}
	}
	t.Logf("probe elements that tell the paths apart: σ %d, tanh via exp %d, tanh via a fused rational %d", sig, tanhBig, tanhSmall)
	if sig == 0 || tanhBig == 0 || tanhSmall == 0 {
		t.Fatalf("the probe vector cannot tell libm's paths apart (σ %d, tanh/exp %d, tanh/rational %d differing elements)", sig, tanhBig, tanhSmall)
	}
}

// TestAct64ProbeFollowsLibm tests the probe from both sides. On the path
// the lanes transcribe — math.Exp fused, math.Tanh's rational unfused, which
// is what a default build on an AVX2+FMA host gives — the probe must be ON:
// a Go release that changes math.Exp or math.Tanh fails here instead of
// silently returning the teacher to the scalar library. On any other path
// (GODEBUG=cpu.fma=off; a compiler that fuses the rational) it must be OFF,
// and the probe, run again, must still fail.
func TestAct64ProbeFollowsLibm(t *testing.T) {
	if !laneKernelsAvailable {
		if act64ProbeOK {
			t.Fatal("probe on without lane kernels")
		}
		t.Skip("no AVX2+FMA lane kernels on this CPU")
	}
	fusedExp, fusedRational, ok := libmPath()
	if !ok {
		t.Fatal("libm matches neither transcription of math.Exp/math.Tanh on the probe vector: the library changed, re-transcribe kernels64act_amd64.s")
	}
	if fusedExp && !fusedRational {
		if !act64ProbeOK {
			t.Fatal("libm is on the transcribed path but the probe is off: the float64 σ/tanh lanes are dead code on this host")
		}
		return
	}
	if act64ProbeOK {
		t.Fatalf("probe on although libm is on another path (exp fused %v, rational fused %v)", fusedExp, fusedRational)
	}
	if !fusedExp && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Fatal("math.Exp is off its FMA path on an FMA host with no GODEBUG cpu option: the library changed")
	}
	if act64Probe() {
		t.Fatal("the probe passes when re-run although libm is on another path")
	}
	t.Logf("probe correctly off: exp fused %v, rational fused %v", fusedExp, fusedRational)
}

// --- Differential sweep ----------------------------------------------------------

// act64Boundaries are the inputs where libm or the lanes change behaviour,
// each with its ±4 ulp neighbours and both signs: zero and the subnormals,
// tanh's 0.625 and 0.5·MAXLOG, the lanes' guard, archExp's overflow
// threshold and the arguments where its result turns subnormal and then
// zero, and the half-integers of x·log₂e (for x and for tanh's 2|x|), where
// the conversion to an exponent rounds to even.
func act64Boundaries() []float64 {
	xs := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, 1e-310, 0x1p-512, 0x1p-54, 0x1p-27,
		act64TanhCut, act64TanhMax, act64TanhMax / 2, act64Guard, act64Guard / 2,
		7.09782712893384e+02, 708.3964185322641, 744.44, 745.14,
		1, 2, 19.06, 36.7, 37.5, math.MaxFloat64, math.Inf(1),
	}
	for k := 1; k <= 2047; k += 2 {
		xs = append(xs, float64(k)*math.Ln2/2, float64(k)*math.Ln2/4)
	}
	var out []float64
	for _, x := range xs {
		b := math.Float64bits(x)
		for d := -4; d <= 4; d++ {
			v := math.Float64frombits(b + uint64(d))
			out = append(out, v, -v)
		}
	}
	return out
}

// act64Structured visits every binary exponent from 2⁻¹⁰⁷⁴ to 2¹⁰²³ (and
// the Inf/NaN exponent) with 64 mantissa patterns apiece — all-zeros,
// all-ones, single bits, and seeded random ones — in both signs.
func act64Structured() []float64 {
	rng := rand.New(rand.NewSource(71))
	var out []float64
	for e := uint64(0); e <= 0x7ff; e++ {
		for p := 0; p < 64; p++ {
			var mant uint64
			switch {
			case p == 0:
			case p == 1:
				mant = 1<<52 - 1
			case p < 22:
				mant = 1 << (uint(p-2) * 52 / 20)
			default:
				mant = rng.Uint64() & (1<<52 - 1)
			}
			v := math.Float64frombits(e<<52 | mant)
			out = append(out, v, -v)
		}
	}
	return out
}

// act64Draws calls fn with chunks of n seeded random inputs, a quarter from
// each of four distributions: N(0, 3) and U(±40), where gate pre-activations
// live; U(±700), the whole of the lanes' range; and a log-uniform exponent
// from 2⁻⁶⁰ to 2¹⁰ with a uniform mantissa and a random sign.
func act64Draws(n int, fn func(xs []float64)) {
	const chunk = 1 << 12
	rng := rand.New(rand.NewSource(73))
	xs := make([]float64, chunk)
	for done := 0; done < n; done += chunk {
		for i := range xs {
			switch i & 3 {
			case 0:
				xs[i] = rng.NormFloat64() * 3
			case 1:
				xs[i] = (rng.Float64()*2 - 1) * 40
			case 2:
				xs[i] = (rng.Float64()*2 - 1) * act64Guard
			default:
				u := rng.Uint64()
				e := 1023 - 60 + u>>53%71
				xs[i] = math.Float64frombits(u&(1<<63|(1<<52-1)) | e<<52)
			}
		}
		fn(xs)
	}
}

// act64DrawCount is the size of the random sweep: 10⁸ inputs per function
// through the lanes in a full run; 2·10⁶ under -short, and where the slice
// entry points are the library itself (go mode, or the probe has stood the
// lanes down) and the sweep only pins that they still are.
func act64DrawCount() int {
	if testing.Short() || !act64Lanes() {
		return 2_000_000
	}
	return 100_000_000
}

// TestAct64LanesMatchLibm is the float64 activation contract as a test, in
// both kernel modes: σ and tanh through the slice entry points are
// math.Float64bits-equal to the library expressions on every input — the
// structured sweep of every exponent, the boundary inputs, the random draws
// — and a NaN gives a NaN (class only). In lane mode the count of differing
// inputs it reports must be zero; in go mode, and where the probe has stood
// the lanes down, the entry points are the library and the test pins that
// they still are.
func TestAct64LanesMatchLibm(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		trustAct64Lanes(t)
		for _, f := range act64Fns {
			var checked, differing int
			got := make([]float64, 1<<12)
			check := func(xs []float64) {
				got := got[:len(xs)]
				f.slice(got, xs)
				for i, x := range xs {
					want := f.libm(x)
					checked++
					if math.IsNaN(want) && math.IsNaN(got[i]) {
						continue
					}
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						if differing++; differing <= 5 {
							t.Errorf("%s(%v = %#x): slice %#x (%v), libm %#x (%v)", f.name,
								x, math.Float64bits(x), math.Float64bits(got[i]), got[i], math.Float64bits(want), want)
						}
					}
				}
			}
			inChunks := func(xs []float64) {
				for ; len(xs) > len(got); xs = xs[len(got):] {
					check(xs[:len(got)])
				}
				check(xs)
			}
			// Each list twice: as it is, where a NaN or an input beyond the
			// guard sends its whole vector to the library, and with those
			// removed, so that every other input is seen to go through the
			// lanes whatever its neighbours were.
			for _, xs := range [][]float64{act64Structured(), act64Boundaries()} {
				inChunks(xs)
				inChunks(slices.DeleteFunc(xs, func(x float64) bool { return !(math.Abs(x) <= act64Guard) }))
			}
			act64Draws(act64DrawCount(), check)
			t.Logf("%s: %d inputs, %d differing from libm (lanes active: %v)", f.name, checked, differing, act64Lanes())
			if differing != 0 {
				t.Fatalf("%s: %d of %d inputs differ from libm", f.name, differing, checked)
			}
		}
	})
}

// TestAct64LanesStayInBounds guards what the compiler cannot: the lanes take
// bare pointers, so for every length 0…67 (and the serving widths) source
// and destination sit between NaN sentinel bands, out of place and in
// place. The bands must come back untouched, every destination cell must
// hold the library's value, and an out-of-place source must be unchanged. A
// second pass plants an out-of-range input at every position in turn: the
// lanes must stop in front of its vector without having stored into it (in
// place, a store would destroy the source the library then reads).
func TestAct64LanesStayInBounds(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		trustAct64Lanes(t)
		lengths := []int{108, 216, 432}
		for n := 0; n <= 67; n++ {
			lengths = append(lengths, n)
		}
		for _, f := range act64Fns {
			run := func(n, bad int, inPlace bool) {
				src := newGuarded[float64](1, n)
				dst := src
				if !inPlace {
					dst = newGuarded[float64](1, n)
				}
				for i := range src.Data {
					src.Data[i] = float64(i%13) - 6.25
				}
				if bad >= 0 {
					src.Data[bad] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 700.5, -1e300}[bad%5]
				}
				before := append([]float64(nil), src.Data...)
				f.slice(dst.Data, src.Data)
				if !src.intact() || !dst.intact() {
					t.Fatalf("%s n=%d bad=%d inPlace=%v: sentinel band overwritten", f.name, n, bad, inPlace)
				}
				for i, x := range before {
					if !inPlace && math.Float64bits(src.Data[i]) != math.Float64bits(x) {
						t.Fatalf("%s n=%d bad=%d: source cell %d changed", f.name, n, bad, i)
					}
					want := f.libm(x)
					if math.IsNaN(want) && math.IsNaN(dst.Data[i]) {
						continue
					}
					if math.Float64bits(dst.Data[i]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d bad=%d inPlace=%v: cell %d = %v, want %v", f.name, n, bad, inPlace, i, dst.Data[i], want)
					}
				}
			}
			for _, n := range lengths {
				for _, inPlace := range []bool{false, true} {
					run(n, -1, inPlace)
					if n <= 67 {
						for bad := 0; bad < n; bad++ {
							run(n, bad, inPlace)
						}
					}
				}
			}
		}
	})
}

// TestAct64LanesReportRange pins the kernels' own contract, which the slice
// wrappers rely on: over n whole vectors they return n, and with a lane
// outside the guard — NaN, ±Inf, or the first value above it — they return
// the index of that lane's vector and leave it and everything behind it
// unwritten.
func TestAct64LanesReportRange(t *testing.T) {
	setLaneKernels(t, true)
	const n = 24
	for _, f := range act64Fns {
		for bad := -1; bad < n; bad++ {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(act64Guard, 1000), -math.Nextafter(act64Guard, 1000)} {
				src, dst := newGuarded[float64](1, n), newGuarded[float64](1, n)
				for i := range src.Data {
					src.Data[i] = float64(i) - 11.5
					dst.Data[i] = -77
				}
				want := n
				if bad >= 0 {
					src.Data[bad] = v
					want = bad &^ 3
				}
				if got := f.lanes(&dst.Data[0], &src.Data[0], n, &act64Tab); got != want {
					t.Fatalf("%s with %v at %d: lanes report %d elements done, want %d", f.name, v, bad, got, want)
				}
				for i, d := range dst.Data {
					if (i >= want) != (d == -77) {
						t.Fatalf("%s with %v at %d: cell %d = %v after the lanes reported %d done", f.name, v, bad, i, d, want)
					}
				}
				if bad < 0 {
					break
				}
			}
		}
		for _, x := range []float64{act64Guard, -act64Guard} {
			src := [4]float64{x, x, x, x}
			var dst [4]float64
			if got := f.lanes(&dst[0], &src[0], 4, &act64Tab); got != 4 {
				t.Fatalf("%s(%v): the guard itself must be inside the lanes' range", f.name, x)
			}
		}
	}
}

// BenchmarkAct64 times σ and tanh over the teacher's slice widths — a cell
// gate (108), a page's tag rows (324), one LSTM step's pre-activations (432)
// and a 93-token page's worth (10 044) — impl=go being the scalar library
// loop and impl=lanes the AVX2 transcription.
func BenchmarkAct64(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{108, 324, 432, 10044} {
		src, dst := make([]float64, n), make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 3
		}
		for _, f := range act64Fns {
			for _, impl := range []string{"go", "lanes"} {
				b.Run(fmt.Sprintf("%s/n=%d/impl=%s", f.name, n, impl), func(b *testing.B) {
					setLaneKernels(b, impl == "lanes")
					if impl == "lanes" && !act64Lanes() {
						b.Skip("the probe has stood the float64 activation lanes down")
					}
					for i := 0; i < b.N; i++ {
						f.slice(dst, src)
					}
				})
			}
		}
	}
}
