package tensor

// Cache-blocked, register-blocked matrix kernels — the allocation-free
// inference fast path. Every kernel here preserves the naive loops'
// per-element accumulation order (contributions arrive in ascending k for
// each output cell), so results are bitwise identical to the reference
// loops of kernels_reference_test.go: blocking only changes WHICH cells are
// in flight at once, never the order of floating-point additions into one
// cell.
// The single permitted divergence is the sign of a zero when an input
// contains exact zeros (the reference kernels skip a==0 terms, the
// transposed ones add ±0), which compares equal under == and never changes
// a value.
//
// The float64 contract, precisely: each output cell receives its a != 0
// terms in ascending k, with one rounding after the multiply and one after
// the add. That forbids fusing (FMA drops the first rounding) and
// reassociating one cell's sum; it does not forbid vectorising across cells
// or computing several rows at once. On amd64 with AVX2, matMulRows
// therefore runs unfused lane bodies (kernels64avx_amd64.s: lanes are output
// cells, VMULPD then VADDPD per k term) that are bit-for-bit identical to
// its pure-Go body below for finite operands, signed zeros, subnormals and
// the a == 0 skip included — the Go compiler emits the same unfused
// MULSD/ADDSD pair (on amd64 it never fuses). The class of a non-finite cell
// (NaN, +Inf, -Inf) is inside the contract; NaN payloads are outside it
// (which operand of a two-NaN add survives is the compiler's choice). The
// pure-Go bodies are the only path on other hardware and the reference
// TestKernels64LanesMatchPureGo compares the lanes against.
//
// The register blocking of the lane bodies is a tile, tileRows output rows
// by two vectors of columns: eight accumulators advance together through one
// k loop, every load of the right-hand matrix feeds all four rows, and an
// M-row product streams that matrix M/4 times instead of M. Rows the tile
// does not take — fewer than four, the M mod 4 left over, and for float64
// any 4-row block of the left operand that holds a zero, which must be
// skipped — run one-row blocks of four accumulators, and the columns short
// of a vector run a masked vector, four rows in flight. None of this changes
// a cell's own sequence, so a row's bits do not depend on how many rows it
// was multiplied with (TestMatMulRowPartitionBitwise).
//
// Without lane kernels the register blocking is a quad of independent
// accumulators — four output cells of one row advance together through the
// shared k loop (eight for float32, kernels32.go). Every body, lanes or pure
// Go, reads the right-hand matrix in place.

// packWidth is the register-block width: output cells advanced per quad.
const packWidth = 4

// tileRows is the height of the lane kernels' register tile: output rows
// that advance together through one k loop, sharing each load of the
// right-hand matrix. parallelRows cuts its chunks on multiples of it.
const tileRows = 4

// transposeTile is the square tile edge for the cache-blocked transpose.
// 32×32 float64 tiles are 8 KiB per operand (float32: 4 KiB) — both tiles
// fit in L1.
const transposeTile = 32

// matMulInto is MatMulInto's body: r += m·o, with large products
// row-partitioned across goroutines.
func matMulInto[T Float](r, m, o *MatrixOf[T]) {
	if m.Rows*m.Cols*o.Cols >= parallelFlopThreshold && m.Rows > 1 {
		parallelRows(m.Rows, func(lo, hi int) { matMulRowRange(r, m, o, lo, hi) })
		return
	}
	matMulRowRange(r, m, o, 0, m.Rows)
}

// The three functions below are the only places the matmuls branch on the
// element type: one type switch per op, selecting the float64 kernels in
// this file (bitwise contract: unfused AVX2 lanes where the CPU has them,
// never fused) or the float32 kernels in kernels32.go (k-term envelope:
// AVX2+FMA lanes behind the same gate).

// matMulRowRange computes output rows [lo, hi) of r += m·o.
func matMulRowRange[T Float](r, m, o *MatrixOf[T], lo, hi int) {
	switch r := any(r).(type) {
	case *Matrix:
		matMulRows(r, any(m).(*Matrix), any(o).(*Matrix), lo, hi)
	case *Matrix32:
		matMulRows32(r, any(m).(*Matrix32), any(o).(*Matrix32), lo, hi)
	}
}

// matMulTransB sets dst = m·oᵀ.
func matMulTransB[T Float](dst, m, o *MatrixOf[T]) {
	switch dst := any(dst).(type) {
	case *Matrix:
		matMulTransBBlocked(dst, any(m).(*Matrix), any(o).(*Matrix))
	case *Matrix32:
		matMulTransBBlocked32(dst, any(m).(*Matrix32), any(o).(*Matrix32))
	}
}

// matMulTransA accumulates dst += mᵀ·o.
func matMulTransA[T Float](dst, m, o *MatrixOf[T]) {
	switch dst := any(dst).(type) {
	case *Matrix:
		m := any(m).(*Matrix)
		matMulTransARows(dst, m, any(o).(*Matrix), 0, m.Rows)
	case *Matrix32:
		m := any(m).(*Matrix32)
		matMulTransARows32(dst, m, any(o).(*Matrix32), 0, m.Rows)
	}
}

// --- Blocked kernels --------------------------------------------------------

// matMulRows computes output rows [lo, hi) of r += m·o: the row-streaming
// axpy loop with a 4x-unrolled inner loop. The a==0 skip is kept — it is
// essentially free on dense inputs (the branch is always taken, hence
// perfectly predicted) and saves a full row pass per masked-out activation
// during dropout training. With lane kernels the same per-cell sequence,
// skip included, runs in matMulRowsLanes' register tiles.
func matMulRows(r, m, o *Matrix, lo, hi int) {
	n := o.Cols
	if useLaneKernels && o.Rows > 0 && n > 0 && lo < hi {
		matMulRowsLanes(r, m, o, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		mRow := m.Row(i)
		rRow := r.Row(i)
		for k, a := range mRow {
			if a == 0 {
				continue
			}
			oRow := o.Row(k)
			j := 0
			for ; j+packWidth <= n; j += packWidth {
				q := oRow[j : j+4 : j+4]
				s := rRow[j : j+4 : j+4]
				s[0] += a * q[0]
				s[1] += a * q[1]
				s[2] += a * q[2]
				s[3] += a * q[3]
			}
			for ; j < n; j++ {
				rRow[j] += a * oRow[j]
			}
		}
	}
}

// matMulTransBBlocked sets dst = m·oᵀ advancing four output columns (four
// rows of o) per quad: four independent dot-product accumulators share one
// pass over the m row, each accumulating its own cell in ascending k.
func matMulTransBBlocked(dst, m, o *Matrix) {
	rows := o.Rows
	for i := 0; i < m.Rows; i++ {
		mRow := m.Row(i)
		rRow := dst.Row(i)
		j := 0
		for ; j+packWidth <= rows; j += packWidth {
			o0, o1, o2, o3 := o.Row(j), o.Row(j+1), o.Row(j+2), o.Row(j+3)
			var s0, s1, s2, s3 float64
			for k, a := range mRow {
				s0 += a * o0[k]
				s1 += a * o1[k]
				s2 += a * o2[k]
				s3 += a * o3[k]
			}
			rRow[j], rRow[j+1], rRow[j+2], rRow[j+3] = s0, s1, s2, s3
		}
		for ; j < rows; j++ {
			oRow := o.Row(j)
			var s float64
			for k, a := range mRow {
				s += a * oRow[k]
			}
			rRow[j] = s
		}
	}
}

// matMulTransARows accumulates dst += mᵀ·o for k rows [lo, hi) of m with a
// branchless 4x-unrolled axpy. The reference kernel's a==0 skip is gone:
// on the dense gradients this kernel sees in backward passes the skip never
// fires yet costs a data-dependent branch per scalar, and on dropout-sparse
// inputs (~20% zeros) the mispredictions eat the skipped work (measured in
// BenchmarkMatMulTransAKernels).
func matMulTransARows(dst, m, o *Matrix, lo, hi int) {
	n := o.Cols
	for k := lo; k < hi; k++ {
		mRow := m.Row(k)
		oRow := o.Row(k)
		for i, a := range mRow {
			rRow := dst.Row(i)
			j := 0
			for ; j+packWidth <= n; j += packWidth {
				q := oRow[j : j+4 : j+4]
				s := rRow[j : j+4 : j+4]
				s[0] += a * q[0]
				s[1] += a * q[1]
				s[2] += a * q[2]
				s[3] += a * q[3]
			}
			for ; j < n; j++ {
				rRow[j] += a * oRow[j]
			}
		}
	}
}

// transposeBlocked sets dst = mᵀ tile by tile, so both the row-strided
// reads and the column-strided writes stay within one L1-resident
// transposeTile² block instead of sweeping a full matrix-height stride per
// element.
func transposeBlocked[T Float](dst, m *MatrixOf[T]) {
	rows, cols := m.Rows, m.Cols
	for i0 := 0; i0 < rows; i0 += transposeTile {
		iMax := i0 + transposeTile
		if iMax > rows {
			iMax = rows
		}
		for j0 := 0; j0 < cols; j0 += transposeTile {
			jMax := j0 + transposeTile
			if jMax > cols {
				jMax = cols
			}
			for i := i0; i < iMax; i++ {
				src := m.Data[i*cols+j0 : i*cols+jMax]
				for jj, v := range src {
					dst.Data[(j0+jj)*rows+i] = v
				}
			}
		}
	}
}
