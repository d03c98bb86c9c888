package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// act32Fns pairs each float32 activation with its slice entry point (lanes
// or pure Go, whichever useLaneKernels selects), its scalar pure-Go
// definition and the float64 library form it approximates.
var act32Fns = []struct {
	name   string
	slice  func(dst, src []float32)
	scalar func(float32) float32
	libm   func(float64) float64
	maxULP int64
}{
	{"sigmoid", sigmoidSlice32, sigmoid32, sigmoid64, 2},
	{"tanh", tanhSlice32, tanh32, math.Tanh, 2},
}

// act32Boundaries are the inputs where the bodies change behaviour: zeros,
// the subnormal range, every constant a comparison reads (and its
// neighbours), the inputs whose range reduction lands on a half-integer, the
// thresholds where results become subnormal, zero, or exactly ±1, the
// largest finite values and the infinities — plus one input per function
// where an exhaustive run over all 2³² patterns found the worst error (σ:
// 245 074 inputs at 2 ulp; tanh: 24), so the envelope test sees the bound
// attained whatever the sweep stride.
func act32Boundaries() []float32 {
	xs := []float32{
		-1.0987998, 1.2338854,
		0, math.SmallestNonzeroFloat32, 0x1p-126, 0x1p-127, 0x1.fffffcp-127,
		1e-30, 1e-20, 0x1p-25, 0x1p-24, 0x1p-12, 0x1p-11,
		act32TanhCut, act32TanhClamp, act32SigmoidClamp,
		1, 2, 8.66, 9.01, 16.6, 17.33, 87.3, 87.34, 88.72, 103.27, 103.97, 104,
		math.MaxFloat32, float32(math.Inf(1)),
	}
	for k := 1; k <= 152; k += 2 {
		xs = append(xs, float32(float64(k)*math.Ln2/2), float32(float64(k)*math.Ln2/4))
	}
	var out []float32
	for _, x := range xs {
		b := math.Float32bits(x)
		for d := -3; d <= 3; d++ {
			v := math.Float32frombits(b + uint32(d))
			out = append(out, v, -v)
		}
	}
	return out
}

// act32Sweep calls fn with consecutive chunks of three input sets: a walk
// through all 2³² bit patterns with stride 83 (odd, so every exponent and
// both signs are visited: ≈ 51.7 M inputs, NaN patterns included — fn
// decides what to do with them); a denser walk, stride 11, through
// 2⁻⁶ ≤ |x| < 2⁷, where the functions are neither the identity nor
// saturated and every step of the polynomials reaches the result (≈ 21 M
// inputs; the coarse walk alone puts too few points there to notice a fused
// low-order term); and the boundary inputs.
func act32Sweep(fn func(xs []float32)) {
	const chunk = 1 << 12
	xs := make([]float32, 0, chunk)
	emit := func(x float32) {
		xs = append(xs, x)
		if len(xs) == chunk {
			fn(xs)
			xs = xs[:0]
		}
	}
	for b := uint64(0); b < 1<<32; b += 83 {
		emit(math.Float32frombits(uint32(b)))
	}
	for b := math.Float32bits(0x1p-6); b < math.Float32bits(0x1p7); b += 11 {
		emit(math.Float32frombits(b))
		emit(-math.Float32frombits(b))
	}
	fn(append(xs, act32Boundaries()...))
}

func isNaN32(x float32) bool { return x != x }

// TestAct32LanesMatchPureGo is the determinism contract of the float32
// activations as a test: the AVX2 lanes and the pure-Go bodies agree on
// math.Float32bits for every non-NaN input — over act32Sweep's ≈ 73 M
// inputs, every boundary input, and every slice length 1…35 (each
// split between full vectors and the masked tail), in place and out of
// place — and both return a NaN for a NaN.
//
// Mutations of the float32 activation lanes seen to fail when they were
// written (each applied, the named tests run, reverted):
//   - VFMADD213PS for exp32's ·r+E2, ·r+E1, ·r+E0 or p·r²+r step, or for any
//     step of tanh's polynomial or its p·z·a+a; VFNMADD231PS for r−n·ln2Lo;
//     VFMADD132PS for y·log₂e+magic: this test.
//   - VFMADD213PS for E5·r+E4 or ·r+E3: not this test (the dropped rounding
//     reached no result bit in 73 M inputs) but TestUnfusedAsmHasNoFMA, which
//     also refuses a fused y−n·ln2Hi, a change of no bit (n·ln2Hi is exact).
//   - the full-vector store one lane late, or the tail mask one element
//     short: this test, TestAct32LanesStayInBounds, TestAct32Envelope and
//     TestLSTMCellIntoMatchesOps; the tail mask one element long:
//     TestAct32LanesStayInBounds and TestLSTMCellIntoMatchesOps.
//   - tanh's range blend operands swapped: this test, TestAct32Envelope and
//     TestAct32LanesStayInBounds; σ's VMAXPS operands swapped, so a NaN no
//     longer propagates: this test and TestAct32Envelope.
func TestAct32LanesMatchPureGo(t *testing.T) {
	setLaneKernels(t, true)
	for _, f := range act32Fns {
		check := func(xs, got []float32) {
			for i, x := range xs {
				want := f.scalar(x)
				if isNaN32(x) {
					if !isNaN32(got[i]) || !isNaN32(want) {
						t.Fatalf("%s(NaN %#x): lanes %v, pure Go %v, want NaN from both", f.name, math.Float32bits(x), got[i], want)
					}
					continue
				}
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("%s(%v = %#x) in a slice of %d: lanes %#x (%v), pure Go %#x (%v)", f.name,
						x, math.Float32bits(x), len(xs), math.Float32bits(got[i]), got[i], math.Float32bits(want), want)
				}
			}
		}
		got := make([]float32, 1<<13)
		act32Sweep(func(xs []float32) {
			f.slice(got[:len(xs)], xs)
			check(xs, got[:len(xs)])
		})
		bounds := act32Boundaries()
		for n := 1; n <= 35; n++ {
			for off := 0; off+n <= len(bounds); off += n {
				xs := bounds[off : off+n]
				f.slice(got[:n], xs)
				check(xs, got[:n])
				inPlace := append([]float32(nil), xs...)
				f.slice(inPlace, inPlace)
				check(xs, inPlace)
			}
		}
	}
}

// TestAct32Envelope is the accuracy contract, checked in both kernel modes
// over the same sweep: each activation is within its stated ulp bound of the
// float64 library value rounded to float32 — subnormal results included —
// is a NaN exactly when its input is, stays inside [0, 1] (σ) or [−1, 1]
// (tanh) with tanh carrying its argument's sign, and saturates: σ is exactly
// 0 below −104 and exactly 1 above 17.33, tanh exactly ±1 beyond ±9.02, up
// to and including ±Inf.
func TestAct32Envelope(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		for _, f := range act32Fns {
			var worst int64
			got := make([]float32, 1<<13)
			act32Sweep(func(xs []float32) {
				got := got[:len(xs)]
				f.slice(got, xs)
				for i, x := range xs {
					g := got[i]
					if isNaN32(x) != isNaN32(g) {
						t.Fatalf("%s(%v = %#x) = %v: NaN out must mean NaN in", f.name, x, math.Float32bits(x), g)
					}
					if isNaN32(x) {
						continue
					}
					want := float32(f.libm(float64(x)))
					d := ulpDiff32(g, want)
					if d > f.maxULP {
						t.Fatalf("%s(%v = %#x) = %v, libm gives %v: %d ulp apart, bound %d", f.name, x, math.Float32bits(x), g, want, d, f.maxULP)
					}
					if d > worst {
						worst = d
					}
					switch f.name {
					case "sigmoid":
						if g < 0 || g > 1 || (x < -104 && g != 0) || (x > 17.33 && g != 1) {
							t.Fatalf("sigmoid(%v) = %v: outside [0, 1] or not saturated", x, g)
						}
					case "tanh":
						if g < -1 || g > 1 || math.Signbit(float64(g)) != math.Signbit(float64(x)) ||
							(x > 9.02 && g != 1) || (x < -9.02 && g != -1) {
							t.Fatalf("tanh(%v) = %v: outside [-1, 1], wrong sign or not saturated", x, g)
						}
					}
				}
			})
			if worst != f.maxULP {
				t.Errorf("%s: worst error over the sweep is %d ulp; the documented bound %d should say so", f.name, worst, f.maxULP)
			}
		}
	})
}

// TestAct32LanesStayInBounds guards what the compiler cannot: the lanes take
// bare pointers, so for every length 1…35 (and the serving widths) source
// and destination sit between NaN sentinel bands. The bands must come back
// untouched, every destination cell must have been written with the pure-Go
// value (a masked-tail lane stored one slot late, or not at all, leaves a
// zero or lands in the band), and the source must be unchanged.
func TestAct32LanesStayInBounds(t *testing.T) {
	setLaneKernels(t, true)
	lengths := []int{108, 216, 432}
	for n := 1; n <= 35; n++ {
		lengths = append(lengths, n)
	}
	for _, f := range act32Fns {
		for _, n := range lengths {
			src, dst := newGuarded[float32](1, n), newGuarded[float32](1, n)
			for i := range src.Data {
				src.Data[i] = float32(i%13) - 6.25
			}
			before := append([]float32(nil), src.Data...)
			f.slice(dst.Data, src.Data)
			if !src.intact() || !dst.intact() {
				t.Fatalf("%s n=%d: sentinel band overwritten", f.name, n)
			}
			for i, x := range before {
				if src.Data[i] != x {
					t.Fatalf("%s n=%d: source cell %d changed", f.name, n, i)
				}
				if want := f.scalar(x); math.Float32bits(dst.Data[i]) != math.Float32bits(want) {
					t.Fatalf("%s n=%d: cell %d = %v, want %v", f.name, n, i, dst.Data[i], want)
				}
			}
		}
	}
}

// TestLSTMCellIntoMatchesOps pins the fused cell to the destination-passing
// ops it replaces, in both kernel modes and for both element types (f64 and f32 under each mode): the
// gate sum, the four activations on column slices, the cell update and the
// output product, bit for bit (compared widened to float64, which is exact
// for float32), over widths around the vector width and the serving width.
//
// Mutations of the fused cell seen to fail when it was written and laned
// (each applied, the named tests run, reverted), all of them caught by this
// test in lane mode:
//   - the i and f gate offsets swapped, or σ applied to the cell gate: also
//     nn's TestLSTMCellFusedMatchesOpChain.
//   - the float32 cell update's i·g fused into its add (VFMADD231PS): also
//     TestUnfusedAsmHasNoFMA; the float64 one: also TestUnfusedAsmHasNoFMA,
//     wb's TestAct64GatePreactivationsMatchLibm and
//     TestLSTMCellFusedMatchesOpChain.
//   - the cell loops' float32 tail mask one lane long or short (long: also
//     TestLSTMCellLanesStayInBounds), or the gate sum adding rec twice.
//   - the float64 gate sum adding rec twice, or its Go-loop tail starting a
//     vector early or a lane late: also TestLSTMCellFusedMatchesOpChain (and
//     TestAct64GatePreactivationsMatchLibm for the first two).
func TestLSTMCellIntoMatchesOps(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		t.Run("f64", testLSTMCellIntoMatchesOps[float64])
		t.Run("f32", testLSTMCellIntoMatchesOps[float32])
	})
}

func testLSTMCellIntoMatchesOps[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	uniform := func(rows, cols int, span float64) *MatrixOf[T] {
		return Cast[T](Uniform(rows, cols, -span, span, rng))
	}
	cols := func(m *MatrixOf[T], lo, hi int) *MatrixOf[T] {
		out := NewOf[T](m.Rows, hi-lo)
		for r := 0; r < m.Rows; r++ {
			copy(out.Row(r), m.Row(r)[lo:hi])
		}
		return out
	}
	for _, h := range []int{1, 3, 4, 5, 7, 8, 9, 108} {
		for _, rows := range []int{1, 4, 7} {
			in, rec, b, c := uniform(rows, 4*h, 12), uniform(rows, 4*h, 4), uniform(1, 4*h, 1), uniform(rows, h, 3)

			sum, gates := NewOf[T](rows, 4*h), NewOf[T](rows, 4*h)
			AddInto(sum, in, rec)
			AddRowVectorInto(gates, sum, b)
			i, f, g, o := cols(gates, 0, h), cols(gates, h, 2*h), cols(gates, 2*h, 3*h), cols(gates, 3*h, 4*h)
			SigmoidInto(i, i)
			SigmoidInto(f, f)
			TanhInto(g, g)
			SigmoidInto(o, o)
			fc, ig, wantC, wantH := NewOf[T](rows, h), NewOf[T](rows, h), NewOf[T](rows, h), NewOf[T](rows, h)
			MulInto(fc, f, c)
			MulInto(ig, i, g)
			AddInto(wantC, fc, ig)
			TanhInto(wantH, wantC)
			MulInto(wantH, o, wantH)

			gotH, gotC := NewOf[T](rows, h), NewOf[T](rows, h)
			LSTMCellInto(gotH, gotC, rec, in, b, c)
			for _, pair := range []struct {
				what      string
				got, want *MatrixOf[T]
			}{{"hOut", gotH, wantH}, {"cOut", gotC, wantC}} {
				for j, v := range pair.got.Data {
					if w := pair.want.Data[j]; math.Float64bits(float64(v)) != math.Float64bits(float64(w)) {
						t.Fatalf("h=%d rows=%d: %s[%d] fused %v, ops %v", h, rows, pair.what, j, v, w)
					}
				}
			}
		}
	}
}

// TestLSTMCellLanesStayInBounds brackets every operand of the cell with
// sentinel bands, for both element types, every hidden width 1…35 and the
// serving width: the three elementwise lane loops take bare pointers like
// the σ/tanh lanes between them, and their tails — masked for float32,
// handed to the Go loop for float64 — must neither write past a row nor let
// a band's NaN into a result.
func TestLSTMCellLanesStayInBounds(t *testing.T) {
	setLaneKernels(t, true)
	testLSTMCellLanesStayInBounds[float32](t)
	testLSTMCellLanesStayInBounds[float64](t)
}

func testLSTMCellLanesStayInBounds[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	widths := []int{108}
	for h := 1; h <= 35; h++ {
		widths = append(widths, h)
	}
	for _, h := range widths {
		const rows = 3
		hOut, cOut := newGuarded[T](rows, h), newGuarded[T](rows, h)
		rec, in := newGuarded[T](rows, 4*h), newGuarded[T](rows, 4*h)
		b, c := newGuarded[T](1, 4*h), newGuarded[T](rows, h)
		for _, g := range []guarded[T]{rec, in, b, c} {
			for i := range g.Data {
				g.Data[i] = T(rng.NormFloat64())
			}
		}
		LSTMCellInto(hOut.MatrixOf, cOut.MatrixOf, rec.MatrixOf, in.MatrixOf, b.MatrixOf, c.MatrixOf)
		for i, g := range []guarded[T]{hOut, cOut, rec, in, b, c} {
			if !g.intact() {
				t.Fatalf("h=%d: sentinel band around operand %d overwritten", h, i)
			}
			for j, v := range g.Data {
				if math.IsNaN(float64(v)) {
					t.Fatalf("h=%d: operand %d cell %d is NaN", h, i, j)
				}
			}
		}
	}
}

// BenchmarkActKernels32 times σ and tanh over one LSTM step's worth of gate
// pre-activations (432 floats) three ways: impl=libm is what the float32
// tier did before it had functions of its own (the float64 library value
// rounded), impl=go the pure-Go float32 bodies, impl=lanes their AVX2 twins.
func BenchmarkActKernels32(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	src, dst := make([]float32, 432), make([]float32, 432)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 3)
	}
	for _, f := range act32Fns {
		b.Run(f.name+"/impl=libm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range src {
					dst[j] = float32(f.libm(float64(x)))
				}
			}
		})
		for _, impl := range []string{"go", "lanes"} {
			b.Run(f.name+"/impl="+impl, func(b *testing.B) {
				setLaneKernels(b, impl == "lanes")
				for i := 0; i < b.N; i++ {
					f.slice(dst, src)
				}
			})
		}
	}
}
