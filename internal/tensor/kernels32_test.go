package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Float32 kernel property tests. The float64 kernels promise bitwise
// identity with their references; the float32 kernels promise the same
// accumulation ORDER at half width, so the test oracle is the float64
// reference on widened inputs and the assertion is an explicit error
// bound, not equality.
//
// Bound derivation: a k-term float32 dot product whose terms are summed in
// a fixed order accumulates at most one rounding per multiply and one per
// add, each bounded by eps32 = 2⁻²⁴ relative to the running magnitude. The
// running magnitude is at most the dot product of the absolute values, so
//
//	|f32(m·o) - f64(m·o)| ≤ 2·(k+1)·eps32 · (|m|·|o|)  (per cell)
//
// plus the one-rounding cost of converting each input to float32 in the
// first place (absorbed by the same |m|·|o| envelope). The tests assert
// this bound with a 2x safety slack and additionally record the worst
// observed ULP distance, which in practice stays well under the bound.
const eps32 = 1.0 / (1 << 24)

// toleranceFor returns the per-cell absolute error budget for a k-term
// accumulation against the magnitude envelope absDot = (|m|·|o|)[cell].
func toleranceFor(k int, absDot float64) float64 {
	return 4 * float64(k+2) * eps32 * (absDot + 1)
}

// ulpDiff32 counts the float32 representations between a and b — 0 for
// equal values, 1 for adjacent floats. Used to report how tight the
// kernels actually run relative to the analytic bound.
func ulpDiff32(a, b float32) int64 {
	ai := int64(int32(math.Float32bits(a)))
	bi := int64(int32(math.Float32bits(b)))
	if ai < 0 {
		ai = math.MinInt32 - ai
	}
	if bi < 0 {
		bi = math.MinInt32 - bi
	}
	d := ai - bi
	if d < 0 {
		d = -d
	}
	return d
}

// randMat32 draws a float32 shape (via FromSlice32 so degenerate shapes
// work) with zeroFrac entries forced to exactly 0.
func randMat32(rows, cols int, zeroFrac float64, rng *rand.Rand) *Matrix32 {
	data := make([]float32, rows*cols)
	for i := range data {
		if rng.Float64() < zeroFrac {
			continue
		}
		data[i] = float32(rng.NormFloat64())
	}
	return FromSlice(rows, cols, data)
}

// abs64 returns the elementwise absolute value of m widened to float64,
// the magnitude envelope for the error bound.
func abs64(m *Matrix32) *Matrix {
	r := FromSlice(m.Rows, m.Cols, make([]float64, len(m.Data)))
	for i, v := range m.Data {
		r.Data[i] = math.Abs(float64(v))
	}
	return r
}

// withinBound asserts every cell of got is within toleranceFor(k, absDot)
// of want, where absDot is the corresponding cell of the envelope.
func withinBound(t *testing.T, what string, got *Matrix32, want, envelope *Matrix, k int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := float64(got.Data[i])
		tol := toleranceFor(k, envelope.Data[i])
		if math.Abs(g-w) > tol {
			t.Fatalf("%s: entry %d = %v, want %v ± %.3g (k=%d, envelope %.3g)",
				what, i, g, w, tol, k, envelope.Data[i])
		}
	}
}

// TestKernelEquivalence32MatMul checks the float32 matmul entry points —
// unpacked blocked, panel-packed, and accumulate-onto-nonzero-dst — against
// the float64 reference on widened inputs, over the same shape grid as the
// float64 equivalence tests (odd dims, 1-row, 1-col, empty operands).
func TestKernelEquivalence32MatMul(t *testing.T) {
	eachKernelMode(t, testKernelEquivalence32MatMul)
}

func testKernelEquivalence32MatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pack := &PackBuf32{}
	for _, sh := range kernelShapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			m := randMat32(sh.r, sh.k, zeroFrac, rng)
			o := randMat32(sh.k, sh.c, zeroFrac, rng)
			seed := randMat32(sh.r, sh.c, 0, rng)

			want := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			copy(want.Data, Cast[float64](seed).Data)
			referenceMatMul(want, Cast[float64](m), Cast[float64](o))

			envelope := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			copy(envelope.Data, abs64(seed).Data)
			referenceMatMul(envelope, abs64(m), abs64(o))

			got := FromSlice(sh.r, sh.c, append([]float32(nil), seed.Data...))
			matMulRows32(got, m, o, 0, m.Rows)
			withinBound(t, "matMulRows32", got, want, envelope, sh.k)

			packed := FromSlice(sh.r, sh.c, append([]float32(nil), seed.Data...))
			matMulInto(packed, m, o)
			withinBound(t, "matMulInto32", packed, want, envelope, sh.k)

			// The dispatch only partitions rows, so those two must agree
			// exactly, not just within tolerance.
			for i, v := range got.Data {
				if packed.Data[i] != v {
					t.Fatalf("dispatch/kernel divergence at %d: %v vs %v", i, packed.Data[i], v)
				}
			}

			if sh.r > 0 && sh.k > 0 && sh.c > 0 {
				viaAPI := New32(sh.r, sh.c)
				copy(viaAPI.Data, seed.Data)
				MatMulPackInto32(viaAPI, m, o, pack)
				withinBound(t, "MatMulPackInto32", viaAPI, want, envelope, sh.k)
			}
		}
	}
}

// TestKernelEquivalence32MatMulTransB checks the float32 m·oᵀ quad kernel
// against the float64 reference within the k-term bound.
func TestKernelEquivalence32MatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range kernelShapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			m := randMat32(sh.r, sh.k, zeroFrac, rng)
			o := randMat32(sh.c, sh.k, zeroFrac, rng)

			want := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			referenceMatMulTransB(want, Cast[float64](m), Cast[float64](o))
			envelope := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			referenceMatMulTransB(envelope, abs64(m), abs64(o))

			got := FromSlice(sh.r, sh.c, make([]float32, sh.r*sh.c))
			matMulTransBBlocked32(got, m, o)
			withinBound(t, "matMulTransBBlocked32", got, want, envelope, sh.k)
		}
	}
}

// TestKernelEquivalence32MatMulTransA checks the branchless float32 mᵀ·o
// kernel, including accumulate semantics over a nonzero destination.
func TestKernelEquivalence32MatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range kernelShapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			m := randMat32(sh.k, sh.r, zeroFrac, rng)
			o := randMat32(sh.k, sh.c, zeroFrac, rng)
			seed := randMat32(sh.r, sh.c, 0, rng)

			want := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			copy(want.Data, Cast[float64](seed).Data)
			referenceMatMulTransA(want, Cast[float64](m), Cast[float64](o))
			envelope := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			copy(envelope.Data, abs64(seed).Data)
			referenceMatMulTransA(envelope, abs64(m), abs64(o))

			got := FromSlice(sh.r, sh.c, append([]float32(nil), seed.Data...))
			matMulTransARows32(got, m, o, 0, m.Rows)
			withinBound(t, "matMulTransARows32", got, want, envelope, sh.k)
		}
	}
}

// TestKernelEquivalence32Transpose checks the tiled float32 transpose,
// which moves values without arithmetic and must therefore be exact.
func TestKernelEquivalence32Transpose(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, sh := range []struct{ r, c int }{
		{1, 1}, {1, 9}, {9, 1}, {3, 5}, {31, 33}, {32, 32}, {65, 40}, {100, 7}, {0, 5}, {5, 0},
	} {
		m := randMat32(sh.r, sh.c, 0, rng)
		got := FromSlice(sh.c, sh.r, make([]float32, sh.r*sh.c))
		transposeBlocked(got, m)
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				if got.At(j, i) != m.At(i, j) {
					t.Fatalf("transpose (%d,%d): %v, want %v", j, i, got.At(j, i), m.At(i, j))
				}
			}
		}
	}
}

// TestSoftmaxRows32Envelope pins the float32 softmax, whose exponentials
// still evaluate through float64: rows sum to 1 within a few ULP and match
// the float64 softmax of the widened row within the k-term bound. (σ and
// tanh have their own functions and their own tests, kernels32act_test.go.)
func TestSoftmaxRows32Envelope(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randMat32(13, 17, 0.1, rng)
	dst := New32(13, 17)

	SoftmaxRowsInto(dst, m)
	want64 := Cast[float64](m).SoftmaxRows()
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range dst.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum-1) > float64(m.Cols)*4*eps32 {
			t.Fatalf("SoftmaxRowsInto32 row %d sums to %v", i, sum)
		}
		for j, v := range dst.Row(i) {
			if math.Abs(float64(v)-want64.At(i, j)) > toleranceFor(m.Cols, 1) {
				t.Fatalf("SoftmaxRowsInto32 (%d,%d): %v, want %v", i, j, v, want64.At(i, j))
			}
		}
	}
}

// TestPackBufReuse32 is TestPackBufReuse for MatMulPackInto32.
func TestPackBufReuse32(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		testPackBufReuse(t, func(dst, m, o *Matrix32) { MatMulPackInto32(dst, m, o, &PackBuf32{}) })
	})
}

// rowLanesReference32 is the float32 matmul's per-cell definition in the
// current kernel mode, one output row at a time. With lane kernels a cell of
// the first n&^7 columns is fmaBlock8's sequence (ascending k, one fused
// multiply-add per term, no skip), and a cell of the n mod 8 tail — or any
// cell without lane kernels — is the pure-Go loop: the a != 0 terms in
// ascending k, multiply, round, add, round.
func rowLanesReference32(dst, m, o *Matrix32) {
	k, n := o.Rows, o.Cols
	nf := 0
	if useLaneKernels && k > 0 {
		nf = n &^ (packWidth32 - 1)
	}
	for i := 0; i < m.Rows; i++ {
		mRow, rRow := m.Row(i), dst.Row(i)
		for j := 0; j < nf; j += packWidth32 {
			fmaBlock8(&rRow[j], &mRow[0], &o.Data[j], k, n)
		}
		for j := nf; j < n; j++ {
			s := rRow[j]
			for kk, a := range mRow {
				if a != 0 {
					s += a * o.Data[kk*n+j]
				}
			}
			rRow[j] = s
		}
	}
}

// TestKernels32TilesMatchRowLanes is the float32 contract as a test: over
// the register-tile grid matMulRows32 must produce, on math.Float32bits,
// the cells of rowLanesReference32 — so neither the 4-row tile nor the
// masked tail moves a bit of what the one-row blocks and the scalar tail
// computed before them — with the same class where a cell is not finite,
// and leave the sentinel bands around dst, m and o untouched. The rows a
// tile leaves over take the one-row blocks, and the grid's widths reach each
// of them: fmaBlock32 from 32 columns up, fmaBlock16 at 16, 17, 24, 48, 89,
// 144, 279 and 432, fmaBlock8 at 8, 9, 12, 24, 89 and 108.
func TestKernels32TilesMatchRowLanes(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		cases := tileGridCases()
		for _, sh := range servingShapes {
			cases = append(cases, laneCase{sh.r, sh.k, sh.c, 0, "normal"}, laneCase{sh.r, sh.k, sh.c, 0.3, "tiny"})
		}
		for i, c := range cases {
			m, o, dst0 := laneOperands[float32](c, int64(2000+i))
			want := append([]float32(nil), dst0.Data...)
			rowLanesReference32(FromSlice(c.r, c.c, want), m.MatrixOf, o.MatrixOf)
			run := laneRun[float32]{operands: []guarded[float32]{m, o, dst0}}
			run.entry("matMulRows32", dst0, func(dst *Matrix32) { matMulRows32(dst, m.MatrixOf, o.MatrixOf, 0, c.r) })
			for j, w := range want {
				g := run.outs[0][j]
				if math.IsNaN(float64(w)) && math.IsNaN(float64(g)) {
					continue
				}
				if math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%v cell %d: matMulRows32 %x (%v), row by row %x (%v)",
						c, j, math.Float32bits(g), g, math.Float32bits(w), w)
				}
			}
			for j, g := range run.operands {
				if !g.intact() {
					t.Fatalf("%v: sentinel band around operand %d overwritten", c, j)
				}
			}
		}
	})
}

// --- Kernels32 benchmarks ---------------------------------------------------
//
// These pair each float32 kernel with its float64 twin on the same shapes
// so the bandwidth halving shows up as a direct ratio.

func benchMat32(rows, cols int, rng *rand.Rand) *Matrix32 {
	m := New32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func BenchmarkMatMulKernels32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range matMulBenchShapes {
		m64 := benchMat(sh.r, sh.k, 0, rng)
		o64 := benchMat(sh.k, sh.c, 0, rng)
		m32, o32 := Cast[float32](m64), Cast[float32](o64)
		dst64 := New(sh.r, sh.c)
		dst32 := New32(sh.r, sh.c)
		name := fmt.Sprintf("%dx%dx%d", sh.r, sh.k, sh.c)
		b.Run("f64/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst64.Zero()
				matMulInto(dst64, m64, o64)
			}
		})
		b.Run("f32/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst32.Zero()
				matMulInto(dst32, m32, o32)
			}
		})
	}
}

func BenchmarkMatMulTransBKernels32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range matMulBenchShapes {
		m64 := benchMat(sh.r, sh.k, 0, rng)
		o64 := benchMat(sh.c, sh.k, 0, rng)
		m32, o32 := Cast[float32](m64), Cast[float32](o64)
		dst64 := New(sh.r, sh.c)
		dst32 := New32(sh.r, sh.c)
		name := fmt.Sprintf("%dx%dx%d", sh.r, sh.k, sh.c)
		b.Run("f64/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulTransBBlocked(dst64, m64, o64)
			}
		})
		b.Run("f32/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulTransBBlocked32(dst32, m32, o32)
			}
		})
	}
}
