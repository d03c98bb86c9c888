package tensor

// Float32 matmul kernels, used by the distilled-student inference tier and
// reached through the type switches in kernels.go. The blocking scheme of
// the float64 kernels carries over — row partitioning and the register tile
// are shared with kernels.go, the a==0 skips are repeated here — but the
// register block is twice as wide:
// packWidth32 = 8 float32 lanes occupy the same 32 bytes as the float64
// kernels' packWidth = 4 quad, so the cache-line footprint per step is
// identical while the independent accumulator chains double. That width is
// where the float32 tier's speedup comes from on scalar hardware: four
// multiply-add chains leave the multiplier ports idle waiting on add
// latency, eight keep them fed.
//
// Accuracy contract: unlike the float64 kernels, these do NOT promise
// bitwise identity with a reference. They promise the same per-cell
// accumulation ORDER as their float64 twins (ascending k), which bounds the
// divergence from a float64 reference at the float32 rounding of each
// intermediate sum. kernels32_test.go pins this with explicit tolerances:
// for k-term dot products of inputs in [-1, 1] the error is ≤ k·ε·‖sum‖
// with ε = 2⁻²⁴, and the tests assert a documented multiple of that bound.
//
// That envelope contract — rather than the float64 tier's bitwise one — is
// what lets the matmul hot loops FUSE on capable amd64 hardware
// (kernels32fma_amd64.s, gated by useLaneKernels): the lane kernels keep
// each output cell in its own SIMD lane accumulating in ascending k, and
// fusing the multiply-add only removes an intermediate rounding, so results
// stay inside the k-term bound. The float64 kernels take the same lanes
// behind the same gate (kernels64avx_amd64.s) but can never fuse: a
// separate multiply and add per k term is what keeps them bitwise identical
// to their pure-Go bodies.
//
// Within a kernel mode the float32 results are nonetheless exact functions
// of the operands, and the lane mode's are pinned cell by cell
// (TestKernels32TilesMatchRowLanes): a cell of the first n&^7 columns is one
// fused multiply-add per k term in ascending k with no skip — fmaBlock8's
// sequence, whether the 4-row register tile or a one-row block computed it
// — and a cell of the n mod 8 tail is the pure-Go loop's sequence, a != 0
// terms only, multiply, round, add, round (the masked lanes of
// kernels32tail_amd64.s, which therefore never fuse). So the student's bits
// do not depend on how many rows a product has or how it was partitioned.

// packWidth32 is the register-block width of the float32 kernels: 8 lanes
// = 32 bytes, the same per-step footprint as 4 float64 lanes.
const packWidth32 = 8

// matMulRows32 computes output rows [lo, hi) of r += m·o. Unlike the
// float64 matMulRows axpy (k outer, columns inner — every += goes through
// rRow in memory, so each output element is a store-to-load-forwarding
// chain k long), this runs column-block outer / k inner with eight
// accumulators held in registers across the whole k loop. The LSTM serving
// path calls this with m.Rows == 1 every timestep, where the axpy's memory
// round-trips, not arithmetic, were the cost; o there is a weight matrix
// small enough that the strided column reads stay cache-resident. Per
// output cell the accumulation order is still ascending k.
func matMulRows32(r, m, o *Matrix32, lo, hi int) {
	k, n := o.Rows, o.Cols
	if useLaneKernels && k > 0 && n > 0 && lo < hi {
		matMulRowsFMA32(r, m, o, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		mRow := m.Row(i)
		rRow := r.Row(i)
		j := 0
		for ; j+packWidth32 <= n; j += packWidth32 {
			d := rRow[j : j+8 : j+8]
			s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
			s4, s5, s6, s7 := d[4], d[5], d[6], d[7]
			for kk := 0; kk < k; kk++ {
				a := mRow[kk]
				if a == 0 {
					continue
				}
				q := o.Data[kk*n+j : kk*n+j+8 : kk*n+j+8]
				s0 += a * q[0]
				s1 += a * q[1]
				s2 += a * q[2]
				s3 += a * q[3]
				s4 += a * q[4]
				s5 += a * q[5]
				s6 += a * q[6]
				s7 += a * q[7]
			}
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
			d[4], d[5], d[6], d[7] = s4, s5, s6, s7
		}
		for ; j < n; j++ {
			s := rRow[j]
			for kk := 0; kk < k; kk++ {
				if a := mRow[kk]; a != 0 {
					s += a * o.Data[kk*n+j]
				}
			}
			rRow[j] = s
		}
	}
}

// matMulRowsFMA32 is matMulRows32's lane body. The full-lane columns (the
// first n&^7) of every four rows go through the fmaTile4 register tile and
// of the hi-lo mod 4 rows left over through the one-row blocks, 32, then 16,
// then 8 columns wide (fmaBlock32, fmaBlock16, fmaBlock8) — per cell the same fused ascending-k sequence either way, so a
// row's bits do not depend on how many rows it was multiplied with. The n
// mod 8 tail columns of all rows go through mulAddTail32, which performs the
// pure-Go tail loop's unfused, zero-skipping sequence per cell. The caller
// guarantees k > 0, n > 0 and lo < hi.
func matMulRowsFMA32(r, m, o *Matrix32, lo, hi int) {
	k, n := o.Rows, o.Cols
	nf := n &^ (packWidth32 - 1)
	if nf > 0 {
		b := o.Data[:(k-1)*n+nf]
		i := lo
		for ; i+tileRows <= hi; i += tileRows {
			d := r.Data[i*n : (i+tileRows-1)*n+nf]
			a := m.Data[i*k : (i+tileRows)*k]
			fmaTile4(&d[0], &a[0], &b[0], k, n, nf)
		}
		for ; i < hi; i++ {
			mRow := m.Row(i)
			rRow := r.Row(i)
			j := 0
			for ; j+4*packWidth32 <= nf; j += 4 * packWidth32 {
				fmaBlock32(&rRow[j], &mRow[0], &o.Data[j], k, n)
			}
			if j+2*packWidth32 <= nf {
				fmaBlock16(&rRow[j], &mRow[0], &o.Data[j], k, n)
				j += 2 * packWidth32
			}
			if j < nf {
				fmaBlock8(&rRow[j], &mRow[0], &o.Data[j], k, n)
			}
		}
	}
	if w := n - nf; w > 0 {
		d := r.Data[lo*n+nf : hi*n]
		a := m.Data[lo*k : hi*k]
		b := o.Data[nf : k*n]
		mulAddTail32(&d[0], &a[0], &b[0], k, n, hi-lo, &act32Tab[actTailMask][8-w])
	}
}

// matMulTransBBlocked32 sets dst = m·oᵀ with eight independent dot-product
// accumulators per block, the widened analogue of matMulTransBBlocked.
func matMulTransBBlocked32(dst, m, o *Matrix32) {
	rows := o.Rows
	for i := 0; i < m.Rows; i++ {
		mRow := m.Row(i)
		rRow := dst.Row(i)
		j := 0
		for ; j+packWidth32 <= rows; j += packWidth32 {
			o0, o1, o2, o3 := o.Row(j), o.Row(j+1), o.Row(j+2), o.Row(j+3)
			o4, o5, o6, o7 := o.Row(j+4), o.Row(j+5), o.Row(j+6), o.Row(j+7)
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for k, a := range mRow {
				s0 += a * o0[k]
				s1 += a * o1[k]
				s2 += a * o2[k]
				s3 += a * o3[k]
				s4 += a * o4[k]
				s5 += a * o5[k]
				s6 += a * o6[k]
				s7 += a * o7[k]
			}
			rRow[j], rRow[j+1], rRow[j+2], rRow[j+3] = s0, s1, s2, s3
			rRow[j+4], rRow[j+5], rRow[j+6], rRow[j+7] = s4, s5, s6, s7
		}
		for ; j < rows; j++ {
			oRow := o.Row(j)
			var s float32
			for k, a := range mRow {
				s += a * oRow[k]
			}
			rRow[j] = s
		}
	}
}

// matMulTransARows32 accumulates dst += mᵀ·o for k rows [lo, hi) of m with
// the branchless axpy of matMulTransARows, unrolled 8-wide.
func matMulTransARows32(dst, m, o *Matrix32, lo, hi int) {
	n := o.Cols
	for k := lo; k < hi; k++ {
		mRow := m.Row(k)
		oRow := o.Row(k)
		for i, a := range mRow {
			rRow := dst.Row(i)
			j := 0
			for ; j+packWidth32 <= n; j += packWidth32 {
				q := oRow[j : j+8 : j+8]
				s := rRow[j : j+8 : j+8]
				s[0] += a * q[0]
				s[1] += a * q[1]
				s[2] += a * q[2]
				s[3] += a * q[3]
				s[4] += a * q[4]
				s[5] += a * q[5]
				s[6] += a * q[6]
				s[7] += a * q[7]
			}
			for ; j < n; j++ {
				rRow[j] += a * oRow[j]
			}
		}
	}
}
