package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// kernelShapes is the property-test shape grid: odd dims, single rows and
// columns, degenerate zero-row/zero-column operands (constructed through
// FromSlice, since New rejects them), and a few square/rectangular bulk
// shapes that cross the packing and tiling thresholds.
var kernelShapes = []struct{ r, k, c int }{
	{1, 1, 1},
	{1, 16, 64}, // LSTM-step profile: one row, wide output
	{7, 1, 5},   // inner dim 1
	{5, 7, 1},   // single output column
	{1, 1, 9}, {9, 1, 1},
	{3, 5, 7}, {7, 5, 3}, // odd everything
	{4, 4, 4}, {8, 8, 8},
	{33, 17, 29},                    // off-by-one around the quad width
	{64, 64, 64},                    // several register tiles in both dimensions
	{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, // empty operands
}

// randMat fills a shape with uniform values; zeroFrac entries are forced to
// exactly 0 to exercise the reference kernels' zero-skip branch against the
// branchless blocked kernels.
func randMat(rows, cols int, zeroFrac float64, rng *rand.Rand) *Matrix {
	data := make([]float64, rows*cols)
	for i := range data {
		if rng.Float64() < zeroFrac {
			continue
		}
		data[i] = rng.NormFloat64()
	}
	return FromSlice(rows, cols, data)
}

// setLaneKernels forces the matmuls, activations and LSTM-cell loops onto
// their lane bodies (on; the float64 σ/tanh lanes only where the libm probe
// confirmed them) or their pure-Go bodies (off) for the rest of the test or
// benchmark. Asking for lanes the CPU does not have skips it.
func setLaneKernels(t testing.TB, on bool) {
	t.Helper()
	if on && !laneKernelsAvailable {
		t.Skip("no AVX2+FMA lane kernels on this CPU")
	}
	prev := useLaneKernels
	useLaneKernels = on
	t.Cleanup(func() { useLaneKernels = prev })
}

// laneKernelsAvailable is the gate's value as probed at startup, before any
// test flips it.
var laneKernelsAvailable = useLaneKernels

// eachKernelMode runs fn once on the pure-Go kernel bodies and once on the
// lane bodies. Without it the pure-Go bodies would never execute on an AVX2
// host, where the gate is only ever read.
func eachKernelMode(t *testing.T, fn func(t *testing.T)) {
	t.Run("go", func(t *testing.T) { setLaneKernels(t, false); fn(t) })
	t.Run("lanes", func(t *testing.T) { setLaneKernels(t, true); fn(t) })
}

// exactEqual requires identical shape and exactly equal entries (== treats
// +0 and -0 as equal, the one sign difference the blocked kernels permit).
func exactEqual[T Float](t *testing.T, what string, got, want *MatrixOf[T]) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("%s: entry %d = %v, want %v (must be bitwise-order identical)", what, i, got.Data[i], v)
		}
	}
}

// TestKernelEquivalenceMatMul checks every matmul entry point — the
// blocked kernel, the row-partitioning dispatch, the MatMulPackInto shim
// bench/ still calls, and the accumulate semantics over a nonzero
// destination — against referenceMatMul.
func TestKernelEquivalenceMatMul(t *testing.T) {
	eachKernelMode(t, testKernelEquivalenceMatMul)
}

func testKernelEquivalenceMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pack := &PackBuf{}
	for _, sh := range kernelShapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			m := randMat(sh.r, sh.k, zeroFrac, rng)
			o := randMat(sh.k, sh.c, zeroFrac, rng)
			seed := randMat(sh.r, sh.c, 0, rng) // accumulate onto nonzero dst

			want := FromSlice(sh.r, sh.c, append([]float64(nil), seed.Data...))
			referenceMatMul(want, m, o)

			got := FromSlice(sh.r, sh.c, append([]float64(nil), seed.Data...))
			matMulRows(got, m, o, 0, m.Rows)
			exactEqual(t, "matMulRows", got, want)

			packed := FromSlice(sh.r, sh.c, append([]float64(nil), seed.Data...))
			matMulInto(packed, m, o)
			exactEqual(t, "matMulInto", packed, want)

			if sh.r > 0 && sh.k > 0 && sh.c > 0 {
				viaAPI := New(sh.r, sh.c)
				copy(viaAPI.Data, seed.Data)
				MatMulPackInto(viaAPI, m, o, pack)
				exactEqual(t, "MatMulPackInto", viaAPI, want)
			}
		}
	}
}

// TestKernelEquivalenceMatMulTransB checks the register-quad m·oᵀ kernel.
func TestKernelEquivalenceMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range kernelShapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			m := randMat(sh.r, sh.k, zeroFrac, rng)
			o := randMat(sh.c, sh.k, zeroFrac, rng) // o shares m's col count
			want := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			referenceMatMulTransB(want, m, o)
			got := FromSlice(sh.r, sh.c, make([]float64, sh.r*sh.c))
			matMulTransBBlocked(got, m, o)
			exactEqual(t, "matMulTransBBlocked", got, want)
		}
	}
}

// TestKernelEquivalenceMatMulTransA checks the branchless mᵀ·o kernel,
// including accumulate semantics and zero-laden inputs where the reference
// kernel's skip branch fires.
func TestKernelEquivalenceMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range kernelShapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			m := randMat(sh.k, sh.r, zeroFrac, rng)
			o := randMat(sh.k, sh.c, zeroFrac, rng)
			seed := randMat(sh.r, sh.c, 0, rng)

			want := FromSlice(sh.r, sh.c, append([]float64(nil), seed.Data...))
			referenceMatMulTransA(want, m, o)
			got := FromSlice(sh.r, sh.c, append([]float64(nil), seed.Data...))
			matMulTransARows(got, m, o, 0, m.Rows)
			exactEqual(t, "matMulTransARows", got, want)
		}
	}
}

// TestKernelEquivalenceTranspose checks the tiled transpose, including
// shapes that do not divide the tile edge.
func TestKernelEquivalenceTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range []struct{ r, c int }{
		{1, 1}, {1, 9}, {9, 1}, {3, 5}, {31, 33}, {32, 32}, {65, 40}, {100, 7}, {0, 5}, {5, 0},
	} {
		m := randMat(sh.r, sh.c, 0, rng)
		want := FromSlice(sh.c, sh.r, make([]float64, sh.r*sh.c))
		referenceTranspose(want, m)
		got := FromSlice(sh.c, sh.r, make([]float64, sh.r*sh.c))
		transposeBlocked(got, m)
		exactEqual(t, "transposeBlocked", got, want)
	}
}

// TestPackBufReuse pins what is left of the pack-buffer entry points, in both
// kernel modes: MatMulPackInto is MatMulInto bit for bit, and a warm call
// never allocates (bench/wbload times it as tensor.packed_*_ns).
func TestPackBufReuse(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		testPackBufReuse(t, func(dst, m, o *Matrix) { MatMulPackInto(dst, m, o, &PackBuf{}) })
	})
}

func testPackBufReuse[T Float](t *testing.T, shim func(dst, m, o *MatrixOf[T])) {
	rng := rand.New(rand.NewSource(19))
	m := Cast[T](randMat(64, 24, 0, rng))
	o := Cast[T](randMat(24, 40, 0, rng))
	dst, want := NewOf[T](64, 40), NewOf[T](64, 40)
	shim(dst, m, o)
	MatMulInto(want, m, o)
	exactEqual(t, "MatMulPackInto", dst, want)
	allocs := testing.AllocsPerRun(20, func() {
		dst.Zero()
		shim(dst, m, o)
	})
	if allocs > 0 {
		t.Fatalf("warm MatMulPackInto allocates %v per run, want 0", allocs)
	}
}

// TestMatMulSplitKBitwise pins what folding an embedding into a gate matrix
// rests on (nn.InputTable): every matmul kernel accumulates a cell in
// ascending k starting from what the destination holds, so a product split
// at a constant inner boundary — the first k₁ terms into a zeroed
// destination, the remaining k₂ onto that — is bit for bit the one-pass
// product of the concatenated operands; and a row of the first half (a row
// of Emb·Wx) has the same bits whether it was computed alone or inside a
// register tile with its neighbours. Over the register-tile grid widened by
// k₂ ∈ {1, 6, 108} (so 1+6, 50+108, 108+108, … occur), dense and with
// planted ±0 and an all-zero row, both element types, both kernel modes.
func TestMatMulSplitKBitwise(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		testMatMulSplitKBitwise[float64](t)
		testMatMulSplitKBitwise[float32](t)
	})
}

func testMatMulSplitKBitwise[T Float](t *testing.T) {
	for i, c := range tileGridCases() {
		if c.flavour != "normal" {
			continue // MatMulInto rejects non-finite outputs under -tags wbdebug
		}
		k1, k2 := c.k, []int{1, 6, 108}[i%3]
		wide := laneCase{c.r, k1 + k2, c.c, c.zeroFrac, c.flavour}
		m, o, _ := laneOperands[T](wide, int64(3000+i))
		a, b := m.MatrixOf, o.MatrixOf
		a1, a2 := NewOf[T](c.r, k1), NewOf[T](c.r, k2)
		for r := 0; r < c.r; r++ {
			copy(a1.Row(r), a.Row(r)[:k1])
			copy(a2.Row(r), a.Row(r)[k1:])
		}
		b1 := FromSlice(k1, c.c, b.Data[:k1*c.c])
		b2 := FromSlice(k2, c.c, b.Data[k1*c.c:])

		onePass := NewOf[T](c.r, c.c)
		MatMulInto(onePass, a, b)
		split := NewOf[T](c.r, c.c)
		MatMulInto(split, a1, b1)
		for r := 0; r < c.r; r++ {
			alone := NewOf[T](1, c.c)
			MatMulInto(alone, FromSlice(1, k1, a1.Row(r)), b1)
			for j, w := range alone.Data {
				if g := split.Row(r)[j]; bitsOf(g) != bitsOf(w) {
					t.Fatalf("%v+%d row %d col %d: %v among %d rows, %v alone", c, k2, r, j, g, c.r, w)
				}
			}
		}
		MatMulInto(split, a2, b2)
		for j, w := range onePass.Data {
			if g := split.Data[j]; bitsOf(g) != bitsOf(w) {
				t.Fatalf("%v+%d cell %d: split at k=%d %v, one pass %v", c, k2, j, k1, g, w)
			}
		}
	}
}

// TestMatMulRowPartitionBitwise pins the row partition: a product cut into
// parallelRows' chunks (whole register tiles, on two and on three workers)
// is bit for bit the product computed in one piece, for both element types
// in both kernel modes, over row counts on every side of the tile height.
func TestMatMulRowPartitionBitwise(t *testing.T) {
	eachKernelMode(t, func(t *testing.T) {
		testMatMulRowPartitionBitwise[float64](t)
		testMatMulRowPartitionBitwise[float32](t)
	})
}

func testMatMulRowPartitionBitwise[T Float](t *testing.T) {
	const k, n = 50, 29 // float32: a tile, a half tile, 5 tail columns; float64: 3 tiles, a half, 1 tail
	rng := rand.New(rand.NewSource(53))
	o := Cast[T](randMat(k, n, 0, rng))
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, workers := range []int{2, 3} {
		runtime.GOMAXPROCS(workers)
		for rows := 5; rows <= 130; rows++ {
			m := Cast[T](randMat(rows, k, 0.01, rng))
			whole, parts := NewOf[T](rows, n), NewOf[T](rows, n)
			matMulRowRange(whole, m, o, 0, rows)
			covered := 0
			var mu sync.Mutex
			parallelRows(rows, func(lo, hi int) {
				matMulRowRange(parts, m, o, lo, hi)
				mu.Lock()
				defer mu.Unlock()
				covered += hi - lo
				if lo%tileRows != 0 {
					t.Errorf("rows=%d workers=%d: chunk [%d, %d) starts inside a tile", rows, workers, lo, hi)
				}
			})
			if covered != rows {
				t.Fatalf("rows=%d workers=%d: chunks cover %d rows", rows, workers, covered)
			}
			for i, w := range whole.Data {
				if bitsOf(parts.Data[i]) != bitsOf(w) {
					t.Fatalf("rows=%d workers=%d cell %d: partitioned %v, whole %v", rows, workers, i, parts.Data[i], w)
				}
			}
		}
	}
}

// --- Lane kernels vs pure-Go bodies ------------------------------------------

// servingShapes are the paper-scale bundle's matmuls (hidden 108, embedding
// 50, four gates): an LSTM step, a beam=4 decode step, a page's hoisted
// input projection, an output layer whose width leaves a masked tail, a
// page's tag projection (all tail), a short page's 108-wide product and a
// beam=8 step onto the topic vocabulary.
var servingShapes = []struct{ r, k, c int }{
	{1, 108, 432}, {4, 216, 108}, {70, 50, 432}, {5, 108, 437},
	{93, 324, 3}, {15, 324, 108}, {7, 216, 89},
}

// guardPad is the sentinel band, in floats, on each side of a guarded
// operand; guardBits and guardBits32 are its fill, a quiet NaN so that a
// stray read which reaches an output poisons it and a stray write changes
// the pattern.
const (
	guardPad    = 64
	guardBits   = 0x7ff8dead0badcafe
	guardBits32 = 0x7fc0dead
)

// isFloat32 reports whether T is float32.
func isFloat32[T Float]() bool {
	var v T
	_, ok := any(v).(float32)
	return ok
}

// bitsOf returns v's IEEE-754 bit pattern.
func bitsOf[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// guardFill is the sentinel value for element type T.
func guardFill[T Float]() T {
	var v T
	switch p := any(&v).(type) {
	case *float32:
		*p = math.Float32frombits(guardBits32)
	case *float64:
		*p = math.Float64frombits(guardBits)
	}
	return v
}

// guarded is a matrix whose Data sits between two sentinel bands, with its
// capacity cut at its length so Go-side slicing cannot reach the rear band.
type guarded[T Float] struct {
	*MatrixOf[T]
	back []T
}

func newGuarded[T Float](rows, cols int) guarded[T] {
	n := rows * cols
	back := make([]T, n+2*guardPad)
	for i := range back {
		back[i] = guardFill[T]()
	}
	data := back[guardPad : guardPad+n : guardPad+n]
	clear(data)
	return guarded[T]{FromSlice(rows, cols, data), back}
}

// intact reports whether both sentinel bands still hold the fill pattern.
func (g guarded[T]) intact() bool {
	want := bitsOf(guardFill[T]())
	for _, band := range [][]T{g.back[:guardPad], g.back[len(g.back)-guardPad:]} {
		for _, v := range band {
			if bitsOf(v) != want {
				return false
			}
		}
	}
	return true
}

// laneCase is one cell of the differential grid: a shape, the share of
// exact zeros in the operands (half of them -0, which the a == 0 skip must
// treat like +0; with any, the last row of the left operand is all zeros,
// as most of a meanPoolMatrix is), and what the values look like.
type laneCase struct {
	r, k, c  int
	zeroFrac float64
	flavour  string // "normal", "tiny" (subnormal products), "nonfinite" (±Inf and NaN operands)
}

func (c laneCase) String() string {
	return fmt.Sprintf("%dx%dx%d/zero=%v/%s", c.r, c.k, c.c, c.zeroFrac, c.flavour)
}

// fillLane fills one operand of the case.
func fillLane[T Float](c laneCase, data []T, rng *rand.Rand) {
	tiny := 1e-160 // squared, a float64 subnormal
	if isFloat32[T]() {
		tiny = 1e-20 // squared, a float32 subnormal
	}
	negZero := math.Copysign(0, -1)
	for i := range data {
		switch u := rng.Float64(); {
		case u < c.zeroFrac/2:
			data[i] = 0
		case u < c.zeroFrac:
			data[i] = T(negZero)
		default:
			v := rng.NormFloat64()
			if c.flavour == "tiny" {
				v *= tiny
			}
			data[i] = T(v)
		}
		if c.flavour == "nonfinite" && rng.Intn(16) == 0 {
			data[i] = T([]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)])
		}
	}
}

// seedDst fills a destination with the values an accumulate must not
// disturb the low bits of: signed zeros, subnormals, the smallest normal,
// and ordinary values.
func seedDst[T Float](data []T, rng *rand.Rand) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 0x1p-1022}
	if isFloat32[T]() {
		specials = []float64{0, math.Copysign(0, -1), 0x1p-149, -0x1p-149, 1e-40, 0x1p-126}
	}
	for i := range data {
		if rng.Intn(2) == 0 {
			data[i] = T(specials[rng.Intn(len(specials))])
		} else {
			data[i] = T(rng.NormFloat64())
		}
	}
}

// laneOperands builds the case's operands between sentinel bands from seed:
// the left and right matrices and the destination's initial contents (the
// kernels accumulate).
func laneOperands[T Float](c laneCase, seed int64) (m, o, dst0 guarded[T]) {
	rng := rand.New(rand.NewSource(seed))
	m, o, dst0 = newGuarded[T](c.r, c.k), newGuarded[T](c.k, c.c), newGuarded[T](c.r, c.c)
	fillLane(c, m.Data, rng)
	fillLane(c, o.Data, rng)
	if c.zeroFrac > 0 && c.r > 1 {
		clear(m.Row(c.r - 1))
	}
	seedDst(dst0.Data, rng)
	return m, o, dst0
}

// laneRun holds one case's outputs, one per matmul entry point, and every
// guarded operand those entry points were given.
type laneRun[T Float] struct {
	names    []string
	outs     [][]T
	operands []guarded[T]
}

// entry runs fn over a guarded copy of dst0 and records the result.
func (run *laneRun[T]) entry(name string, dst0 guarded[T], fn func(dst *MatrixOf[T])) {
	dst := newGuarded[T](dst0.Rows, dst0.Cols)
	copy(dst.Data, dst0.Data)
	fn(dst.MatrixOf)
	run.names = append(run.names, name)
	run.outs = append(run.outs, dst.Data)
	run.operands = append(run.operands, dst)
}

// runLanes64Case runs matMulRows and MatMulPackInto over the case's operands
// in whichever kernel mode is current.
func runLanes64Case(c laneCase, seed int64) laneRun[float64] {
	m, o, dst0 := laneOperands[float64](c, seed)
	run := laneRun[float64]{operands: []guarded[float64]{m, o, dst0}}
	run.entry("matMulRows", dst0, func(dst *Matrix) { matMulRows(dst, m.MatrixOf, o.MatrixOf, 0, c.r) })
	pack := &PackBuf{}
	if c.r > 0 && c.k > 0 && c.c > 0 && c.flavour != "nonfinite" {
		run.entry("MatMulPackInto", dst0, func(dst *Matrix) { MatMulPackInto(dst, m.MatrixOf, o.MatrixOf, pack) })
	} else {
		// New rejects empty shapes and -tags wbdebug rejects non-finite
		// outputs, both at the exported wrapper: call what it wraps.
		run.entry("matMulInto", dst0, func(dst *Matrix) { matMulInto(dst, m.MatrixOf, o.MatrixOf) })
	}
	return run
}

// tileGridCases is the register-tile grid both dtypes share: every row count
// around the tile height plus two page lengths, inner dimensions from 1 to
// the tag projection's 324, and output widths on every side of both vector
// widths and both tile widths (all tail, one vector, half a tile, a tile,
// a tile and a tail, the serving widths), and at the row counts around the
// tile height one, two, three and five float64 one-row 48-blocks (at the
// page lengths the serving widths reach those blocks already, and the
// extra widths would add a quarter to the package's -race run). Each shape
// runs dense — every 4-row block takes the tile — and with ≈ 2 % planted ±0
// and an all-zero row, where float64 blocks fall back to the skipping row
// kernel; a few shapes also run with non-finite operands.
//
// The float64 rows the tile leaves over, and its blocks that hold a zero,
// take the one-row blocks, and the widths reach each of them:
// mulAddBlock48 at 48, 89, 96, 108, 144, 279, 432 and 437; mulAddBlock16 at
// 16, 17, 24, 89 and 279; mulAddBlock4 at 4, 7, 8, 9, 12, 24, 89, 108, 279
// and 437; the masked tail at every width that is not a multiple of 4.
func tileGridCases() []laneCase {
	rows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 64, 93}
	var cases []laneCase
	for _, r := range rows {
		widths := []int{1, 3, 4, 7, 8, 9, 12, 16, 17, 24, 89, 108, 432, 437}
		if r <= 13 {
			widths = append(widths, 48, 96, 144, 279)
		}
		for _, k := range []int{1, 7, 50, 108, 217, 324} {
			for _, n := range widths {
				cases = append(cases, laneCase{r, k, n, 0, "normal"}, laneCase{r, k, n, 0.02, "normal"})
				if k <= 50 && n <= 24 && r <= 13 {
					cases = append(cases, laneCase{r, k, n, 0, "nonfinite"}, laneCase{r, k, n, 0.02, "nonfinite"})
				}
			}
		}
	}
	return cases
}

// lanes64Cases is the differential grid: kernelShapes, the serving shapes,
// and every output width 1…96, each with and without exact zeros, in every
// flavour; then the register-tile grid. A row of width w runs
// ⌊w/48⌋ mulAddBlock48s, then ⌊(w mod 48)/16⌋ mulAddBlock16s, then
// ⌊(w mod 16)/4⌋ mulAddBlock4s, then the masked tail over w mod 4 columns,
// so the sweep reaches every combination of zero, one or two 48-blocks with
// zero to two 16-blocks, zero to three 4-blocks and a tail of zero to three
// columns that fits in 96.
func lanes64Cases() []laneCase {
	shapes := append(append([]struct{ r, k, c int }{}, kernelShapes...), servingShapes...)
	for w := 1; w <= 96; w++ {
		shapes = append(shapes, struct{ r, k, c int }{3, 7, w}, struct{ r, k, c int }{5, 9, w})
	}
	var cases []laneCase
	for _, sh := range shapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			for _, flavour := range []string{"normal", "tiny", "nonfinite"} {
				cases = append(cases, laneCase{sh.r, sh.k, sh.c, zeroFrac, flavour})
			}
		}
	}
	return append(cases, tileGridCases()...)
}

// TestKernels64LanesMatchPureGo is the float64 contract as a test: over the
// whole grid every lane-mode entry point must produce the bits of the
// pure-Go matMulRows in every cell — signed zeros, subnormals and the
// a == 0 skip included, whether the cell came out of the register tile, a
// one-row block or the masked tail — and the same class (NaN, +Inf, -Inf)
// where a cell is not finite. NaN payloads are outside the contract and not
// compared.
func TestKernels64LanesMatchPureGo(t *testing.T) {
	setLaneKernels(t, true) // skips without AVX2; restores the gate at the end
	for i, c := range lanes64Cases() {
		seed := int64(1000 + i)
		m, o, dst0 := laneOperands[float64](c, seed)
		want := append([]float64(nil), dst0.Data...)
		useLaneKernels = false
		matMulRows(FromSlice(c.r, c.c, want), m.MatrixOf, o.MatrixOf, 0, c.r)
		useLaneKernels = true
		got := runLanes64Case(c, seed)
		for e, name := range got.names {
			for j, w := range want {
				g := got.outs[e][j]
				if math.IsNaN(w) && math.IsNaN(g) {
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v %s cell %d: lanes %x (%v), pure Go matMulRows %x (%v)",
						c, name, j, math.Float64bits(g), g, math.Float64bits(w), w)
				}
			}
		}
	}
}

// TestKernels64LanesStayInBounds guards what the compiler cannot: the lane
// assembly — blocks, register tile, masked tail and zero scan — takes bare
// pointers with no bounds checks, so every operand sits between sentinel
// bands that must come back untouched. (The bands are NaN, so a read past
// an operand that reached an output would also have failed the
// differential test above.)
func TestKernels64LanesStayInBounds(t *testing.T) {
	setLaneKernels(t, true)
	for i, c := range lanes64Cases() {
		run := runLanes64Case(c, int64(1000+i))
		for j, g := range run.operands {
			if !g.intact() {
				t.Fatalf("%v: sentinel band around operand %d overwritten", c, j)
			}
		}
	}
}

// TestUnfusedAsmHasNoFMA reads the assembly families whose contract is
// "every multiply and every add rounds on its own" and fails on any fused
// multiply-add mnemonic. The differential tests catch a fused step whose
// dropped rounding reaches the result — every one in the float64 matmuls,
// and all but the two lowest-order terms of exp32's polynomial, where it
// shows in fewer than one result per 10⁷ inputs — and this catches the
// rest by name. (kernels32fma_amd64.s fuses by contract and is not listed.)
//
// kernels64act_amd64.s transcribes libm, which fuses in exactly one place:
// its exp body must hold the two VFNMADD231PD and eight VFMADD213PD of
// archExp's FMA path, by mnemonic and count, and the rest of the file — σ's
// add and divide, tanh's rational, the cell loops — nothing fused at all.
func TestUnfusedAsmHasNoFMA(t *testing.T) {
	fused := regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)
	define := regexp.MustCompile(`^#define\s+(\w+)`)
	allowed := map[string]map[string]int{
		"kernels64avx_amd64.s":  nil,
		"kernels32act_amd64.s":  nil,
		"kernels32tail_amd64.s": nil,
		"kernels64act_amd64.s":  {"EXP64/VFNMADD231PD": 2, "EXP64/VFMADD213PD": 8},
	}
	for file, want := range allowed {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		macro, continued := "", false
		for i, line := range strings.Split(string(src), "\n") {
			if !continued {
				macro = ""
				if m := define.FindStringSubmatch(line); m != nil {
					macro = m[1]
				}
			}
			code, _, _ := strings.Cut(line, "//")
			continued = strings.HasSuffix(strings.TrimSpace(code), "\\")
			for _, m := range fused.FindAllString(code, -1) {
				key := macro + "/" + m
				if got[key]++; got[key] > want[key] {
					t.Errorf("%s:%d: %s in a kernel that must not fuse here", file, i+1, m)
				}
			}
		}
		for key, n := range want {
			if got[key] != n {
				t.Errorf("%s: %d × %s, libm's exp has %d", file, got[key], key, n)
			}
		}
	}
}
