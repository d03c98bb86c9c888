package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Standalone kernel benchmarks: each blocked kernel against the reference
// naive loops it replaced, on the shapes the briefing model actually runs
// (1-row LSTM steps, sentence-count × hidden blocks) plus a bulk square.

func benchMat(rows, cols int, zeroFrac float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

var matMulBenchShapes = []struct{ r, k, c int }{
	{1, 64, 256},    // LSTM step: x·W
	{40, 64, 64},    // sentence block × hidden
	{128, 128, 128}, // bulk
}

func BenchmarkMatMulKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range matMulBenchShapes {
		m := benchMat(sh.r, sh.k, 0, rng)
		o := benchMat(sh.k, sh.c, 0, rng)
		dst := New(sh.r, sh.c)
		name := fmt.Sprintf("%dx%dx%d", sh.r, sh.k, sh.c)
		b.Run("naive/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				referenceMatMul(dst, m, o)
			}
		})
		b.Run("blocked/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				matMulRows(dst, m, o, 0, m.Rows)
			}
		})
		b.Run("dispatch/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				matMulInto(dst, m, o)
			}
		})
	}
}

func BenchmarkMatMulTransBKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range matMulBenchShapes {
		m := benchMat(sh.r, sh.k, 0, rng)
		o := benchMat(sh.c, sh.k, 0, rng)
		dst := New(sh.r, sh.c)
		name := fmt.Sprintf("%dx%dx%d", sh.r, sh.k, sh.c)
		b.Run("naive/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referenceMatMulTransB(dst, m, o)
			}
		})
		b.Run("blocked/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulTransBBlocked(dst, m, o)
			}
		})
	}
}

// BenchmarkMatMulTransAKernels measures the satellite fix in isolation: the
// reference kernel's a==0 skip branch vs the branchless unrolled kernel, on
// dense inputs (skip never fires, branch pure overhead) and ~20%-sparse
// inputs (dropout regime, where mispredictions eat the skipped work).
func BenchmarkMatMulTransAKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, zf := range []struct {
		name string
		frac float64
	}{{"dense", 0}, {"sparse20", 0.2}} {
		m := benchMat(64, 64, zf.frac, rng)
		o := benchMat(64, 64, 0, rng)
		dst := New(64, 64)
		b.Run("zeroskip/"+zf.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				referenceMatMulTransA(dst, m, o)
			}
		})
		b.Run("branchless/"+zf.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				matMulTransARows(dst, m, o, 0, m.Rows)
			}
		})
	}
}

// BenchmarkTransposeKernels measures the satellite fix for TransposeInto's
// column-strided writes: naive element loop vs 32×32 L1 tiles.
func BenchmarkTransposeKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range []struct{ r, c int }{{64, 64}, {512, 512}} {
		m := benchMat(sh.r, sh.c, 0, rng)
		dst := New(sh.c, sh.r)
		name := fmt.Sprintf("%dx%d", sh.r, sh.c)
		b.Run("naive/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referenceTranspose(dst, m)
			}
		})
		b.Run("tiled/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				transposeBlocked(dst, m)
			}
		})
	}
}

// BenchmarkMatMulKernelsGrid is the matmul kernel matrix at the paper-scale
// bundle's shapes (hidden 108, embedding 50): dtype × weight shape × left-hand
// rows × impl. The weights are the LSTM input and recurrent
// projections (·×432), the 108-wide products with an even and an odd inner
// dimension, the topic vocabulary (216×89) and the tag projection (324×3, all
// masked tail); rows 1 is an LSTM step, 4 and 8 a beam decode step, 7 and 15
// a ragged tile, 64-128 a page's hoisted input projection. impl=go is the
// pure-Go body, impl=lanes the assembly behind useLaneKernels (skipped where
// the CPU has none).
func BenchmarkMatMulKernelsGrid(b *testing.B) {
	for _, w := range []struct{ k, c int }{{50, 432}, {108, 432}, {216, 108}, {217, 108}, {216, 89}, {324, 3}} {
		for _, rows := range []int{1, 4, 7, 8, 15, 64, 93, 128} {
			shape := fmt.Sprintf("shape=%dx%d/rows=%d", w.k, w.c, rows)
			benchKernelGridCell[float64](b, "dtype=f64/"+shape, rows, w.k, w.c)
			benchKernelGridCell[float32](b, "dtype=f32/"+shape, rows, w.k, w.c)
		}
	}
}

func benchKernelGridCell[T Float](b *testing.B, name string, rows, k, c int) {
	rng := rand.New(rand.NewSource(5))
	m, o := Cast[T](benchMat(rows, k, 0, rng)), Cast[T](benchMat(k, c, 0, rng))
	dst := NewOf[T](rows, c)
	for _, impl := range []string{"go", "lanes"} {
		b.Run(name+"/impl="+impl, func(b *testing.B) {
			setLaneKernels(b, impl == "lanes")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.Zero()
				matMulRowRange(dst, m, o, 0, rows)
			}
		})
	}
}
