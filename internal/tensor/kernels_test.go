package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
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
	{64, 64, 64},                    // crosses packMinRows and fills several panels
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

// setLaneKernels forces the matmuls and float32 activations onto their lane
// bodies (on) or their pure-Go bodies (off) for the rest of the test or
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
func exactEqual(t *testing.T, what string, got, want *Matrix) {
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
// unpacked blocked kernel, the panel-packed kernel, and the accumulate
// semantics over a nonzero destination — against referenceMatMul.
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
			matMulIntoPacked(packed, m, o, pack)
			exactEqual(t, "matMulIntoPacked", packed, want)

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

// TestPackBufReuse verifies a PackBuf grows once and is allocation-free
// afterwards — the caller-owned-workspace contract InferScratch relies on.
func TestPackBufReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pack := &PackBuf{}
	m := randMat(packMinRows, 24, 0, rng)
	o := randMat(24, 40, 0, rng)
	dst := New(packMinRows, 40)
	MatMulPackInto(dst, m, o, pack) // sizes the buffer
	if pack.Footprint() < 24*40 {
		t.Fatalf("pack footprint %d after first use, want >= %d", pack.Footprint(), 24*40)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst.Zero()
		MatMulPackInto(dst, m, o, pack)
	})
	if allocs > 0 {
		t.Fatalf("warm MatMulPackInto allocates %v per run, want 0", allocs)
	}
}

// --- Lane kernels vs pure-Go bodies ------------------------------------------

// servingShapes are the paper-scale bundle's matmuls (hidden 108, embedding
// 50, four gates): an LSTM step, a beam=4 decode step, a page's hoisted
// input projection, and an output layer whose width leaves a scalar tail.
var servingShapes = []struct{ r, k, c int }{
	{1, 108, 432}, {4, 216, 108}, {70, 50, 432}, {5, 108, 437},
}

// guardPad is the sentinel band, in floats, on each side of a guarded
// operand; guardBits is its fill, a quiet NaN so that a stray read which
// reaches an output poisons it and a stray write changes the pattern.
const (
	guardPad  = 64
	guardBits = 0x7ff8dead0badcafe
)

// guarded is a matrix whose Data sits between two sentinel bands, with its
// capacity cut at its length so Go-side slicing cannot reach the rear band.
type guarded struct {
	*Matrix
	back []float64
}

func newGuarded(rows, cols int) guarded {
	n := rows * cols
	back := make([]float64, n+2*guardPad)
	for i := range back {
		back[i] = math.Float64frombits(guardBits)
	}
	data := back[guardPad : guardPad+n : guardPad+n]
	clear(data)
	return guarded{FromSlice(rows, cols, data), back}
}

// intact reports whether both sentinel bands still hold the fill pattern.
func (g guarded) intact() bool {
	for _, band := range [][]float64{g.back[:guardPad], g.back[len(g.back)-guardPad:]} {
		for _, v := range band {
			if math.Float64bits(v) != guardBits {
				return false
			}
		}
	}
	return true
}

// lanes64Case is one cell of the differential grid: a shape, the share of
// exact zeros in the operands (half of them -0, which the a == 0 skip must
// treat like +0), and what the values look like.
type lanes64Case struct {
	r, k, c  int
	zeroFrac float64
	flavour  string // "normal", "tiny" (subnormal products), "nonfinite" (±Inf and NaN operands)
}

func (c lanes64Case) String() string {
	return fmt.Sprintf("%dx%dx%d/zero=%v/%s", c.r, c.k, c.c, c.zeroFrac, c.flavour)
}

func (c lanes64Case) fill(data []float64, rng *rand.Rand) {
	for i := range data {
		switch u := rng.Float64(); {
		case u < c.zeroFrac/2:
			data[i] = 0
		case u < c.zeroFrac:
			data[i] = math.Copysign(0, -1)
		default:
			data[i] = rng.NormFloat64()
			if c.flavour == "tiny" {
				data[i] *= 1e-160
			}
		}
		if c.flavour == "nonfinite" && rng.Intn(16) == 0 {
			data[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
	}
}

// seedDst fills a destination with the values an accumulate must not
// disturb the low bits of: signed zeros, subnormals, the smallest normal,
// and ordinary values.
func seedDst(data []float64, rng *rand.Rand) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 0x1p-1022}
	for i := range data {
		if rng.Intn(2) == 0 {
			data[i] = specials[rng.Intn(len(specials))]
		} else {
			data[i] = rng.NormFloat64()
		}
	}
}

// lanes64Run holds one case's outputs, one per matmul entry point, and
// every guarded operand those entry points were given.
type lanes64Run struct {
	names    []string
	outs     [][]float64
	operands []guarded
}

// runLanes64Case builds the case's operands between sentinel bands from
// seed and runs matMulRows, matMulPackedRows and MatMulPackInto over them in
// whichever kernel mode is current.
func runLanes64Case(c lanes64Case, seed int64) lanes64Run {
	rng := rand.New(rand.NewSource(seed))
	m, o, dst0 := newGuarded(c.r, c.k), newGuarded(c.k, c.c), newGuarded(c.r, c.c)
	c.fill(m.Data, rng)
	c.fill(o.Data, rng)
	seedDst(dst0.Data, rng)
	panels := newGuarded(c.k, c.c)
	packPanels(panels.Data, o.Matrix, packWidth)
	run := lanes64Run{operands: []guarded{m, o, dst0, panels}}

	entry := func(name string, fn func(dst *Matrix)) {
		dst := newGuarded(c.r, c.c)
		copy(dst.Data, dst0.Data)
		fn(dst.Matrix)
		run.names = append(run.names, name)
		run.outs = append(run.outs, dst.Data)
		run.operands = append(run.operands, dst)
	}
	entry("matMulRows", func(dst *Matrix) { matMulRows(dst, m.Matrix, o.Matrix, 0, c.r) })
	entry("matMulPackedRows", func(dst *Matrix) { matMulPackedRows(dst, m.Matrix, o.Matrix, panels.Data, 0, c.r) })
	pack := &PackBuf{}
	if c.r > 0 && c.k > 0 && c.c > 0 && c.flavour != "nonfinite" {
		entry("MatMulPackInto", func(dst *Matrix) { MatMulPackInto(dst, m.Matrix, o.Matrix, pack) })
	} else {
		// New rejects empty shapes and -tags wbdebug rejects non-finite
		// outputs, both at the exported wrapper: call what it wraps.
		entry("matMulIntoPacked", func(dst *Matrix) { matMulIntoPacked(dst, m.Matrix, o.Matrix, pack) })
	}
	return run
}

// lanes64Cases is the differential grid: kernelShapes, the serving shapes,
// and every output width 1…35 (each combination of 16-lane blocks, 4-lane
// blocks and scalar tail), each with and without exact zeros, in every
// flavour.
func lanes64Cases() []lanes64Case {
	shapes := append(append([]struct{ r, k, c int }{}, kernelShapes...), servingShapes...)
	for w := 1; w <= 35; w++ {
		shapes = append(shapes, struct{ r, k, c int }{3, 7, w}, struct{ r, k, c int }{5, 9, w})
	}
	var cases []lanes64Case
	for _, sh := range shapes {
		for _, zeroFrac := range []float64{0, 0.3} {
			for _, flavour := range []string{"normal", "tiny", "nonfinite"} {
				cases = append(cases, lanes64Case{sh.r, sh.k, sh.c, zeroFrac, flavour})
			}
		}
	}
	return cases
}

// TestKernels64LanesMatchPureGo is the float64 contract as a test: over the
// whole grid the lane bodies and the pure-Go bodies must produce the same
// bits in every cell — signed zeros, subnormals and the a == 0 skip
// included — and the same class (NaN, +Inf, -Inf) where a cell is not
// finite. NaN payloads are outside the contract and not compared.
func TestKernels64LanesMatchPureGo(t *testing.T) {
	setLaneKernels(t, true) // skips without AVX2; restores the gate at the end
	for i, c := range lanes64Cases() {
		seed := int64(1000 + i)
		useLaneKernels = false
		want := runLanes64Case(c, seed)
		useLaneKernels = true
		got := runLanes64Case(c, seed)
		for e, name := range want.names {
			for j, w := range want.outs[e] {
				g := got.outs[e][j]
				if math.IsNaN(w) && math.IsNaN(g) {
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v %s cell %d: lanes %x (%v), pure Go %x (%v)",
						c, name, j, math.Float64bits(g), g, math.Float64bits(w), w)
				}
			}
		}
	}
}

// TestKernels64LanesStayInBounds guards what the compiler cannot: the lane
// assembly takes bare pointers with no bounds checks, so every operand sits
// between sentinel bands that must come back untouched. (The bands are NaN,
// so a read past an operand that reached an output would also have failed
// the differential test above.)
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

// TestUnfusedAsmHasNoFMA reads the two assembly families whose contract is
// "every multiply and every add rounds on its own" and fails on any fused
// multiply-add mnemonic. The differential tests catch a fused step whose
// dropped rounding reaches the result — every one in the float64 matmuls,
// and all but the two lowest-order terms of exp32's polynomial, where it
// shows in fewer than one result per 10⁷ inputs — and this catches the
// rest by name. (kernels32fma_amd64.s fuses by contract and is not listed.)
func TestUnfusedAsmHasNoFMA(t *testing.T) {
	fused := regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)
	for _, file := range []string{"kernels64avx_amd64.s", "kernels32act_amd64.s"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if m := fused.FindString(code); m != "" {
				t.Errorf("%s:%d: %s in a kernel that must not fuse", file, i+1, m)
			}
		}
	}
}
