//go:build amd64

package tensor

// Go side of the unfused AVX2 float64 lane kernels in kernels64avx_amd64.s.
// The assembly takes bare pointers (go:noescape, no bounds checks), so every
// call below first slices the exact extent the routine will touch: an
// off-by-one panics here instead of scribbling there.

// mulAddBlock16 accumulates d[0:16] += Σ_{kk<k, a[kk]≠0} a[kk] ·
// b[kk·stride : kk·stride+16], one unfused 4-lane multiply then add per
// block per kk. k must be > 0.
//
//go:noescape
func mulAddBlock16(d, a, b *float64, k, stride int)

// mulAddBlock4 is mulAddBlock16 over one 4-lane block (d[0:4]). k must be > 0.
//
//go:noescape
func mulAddBlock4(d, a, b *float64, k, stride int)

// mulAddTile4 is the register tile: d[r*n+c] += Σ_{kk<k} a[r*k+kk] · b[kk*n+c]
// for the four rows r < 4 and the columns c < cols, cols a positive multiple
// of 4, eight columns by four rows in flight, one unfused multiply then add
// per term. d and b have row stride n, a row stride k. It has no zero skip:
// a[0:4k] must hold no zero (hasZero64). k must be > 0.
//
//go:noescape
func mulAddTile4(d, a, b *float64, k, n, cols int)

// mulAddTail is the masked tail: d[r*n+c] += Σ_{kk<k, a[r*k+kk]≠0} a[r*k+kk] ·
// b[kk*n+c] for r < rows and the c < 4 lanes whose 64-bit word at mask is
// set, four rows in flight. k and rows must be > 0; mask points into
// act32Tab's tail-mask rows, whose bit pattern serves both lane widths.
//
//go:noescape
func mulAddTail(d, a, b *float64, k, n, rows int, mask *float32)

// hasZero64 reports whether a[0:n] holds a +0 or a -0. n must be a positive
// multiple of 4.
//
//go:noescape
func hasZero64(a *float64, n int) bool

// matMulRowsLanes is matMulRows' lane body: column-block outer / k inner
// with the accumulators in YMM registers instead of the k-outer axpy
// through memory. The full-lane columns (the first n&^3) of every four rows
// whose 4×k block of m holds no zero go through the mulAddTile4 register
// tile; blocks with a zero (meanPoolMatrix is mostly zeros, dropout masks a
// fifth of an activation) and the hi-lo mod 4 rows left over go through the
// one-row mulAddBlock16/mulAddBlock4, which skip a == 0 terms. The n mod 4
// tail columns of all rows go through mulAddTail, which skips too. Every
// cell still receives its a != 0 terms in ascending k, each multiplied,
// rounded, added and rounded, so it is bitwise identical to matMulRows
// whichever kernel computed it. The caller guarantees k > 0, n > 0 and
// lo < hi.
func matMulRowsLanes(r, m, o *Matrix, lo, hi int) {
	k, n := o.Rows, o.Cols
	nf := n &^ (packWidth - 1)
	if nf > 0 {
		b := o.Data[:(k-1)*n+nf]
		i := lo
		for ; i+tileRows <= hi; i += tileRows {
			a := m.Data[i*k : (i+tileRows)*k]
			if hasZero64(&a[0], len(a)) {
				matMulRowBlocks(r, m, o, i, i+tileRows)
				continue
			}
			d := r.Data[i*n : (i+tileRows-1)*n+nf]
			mulAddTile4(&d[0], &a[0], &b[0], k, n, nf)
		}
		matMulRowBlocks(r, m, o, i, hi)
	}
	if w := n - nf; w > 0 {
		d := r.Data[lo*n+nf : hi*n]
		a := m.Data[lo*k : hi*k]
		b := o.Data[nf : k*n]
		mulAddTail(&d[0], &a[0], &b[0], k, n, hi-lo, &act32Tab[actTailMask][8-2*w])
	}
}

// matMulRowBlocks runs the one-row zero-skipping blocks over the full-lane
// columns of rows [lo, hi): 16 columns at a time, then 4.
func matMulRowBlocks(r, m, o *Matrix, lo, hi int) {
	k, n := o.Rows, o.Cols
	for i := lo; i < hi; i++ {
		a := m.Row(i)[:k]
		rRow := r.Row(i)
		j := 0
		for ; j+16 <= n; j += 16 {
			d := rRow[j : j+16 : j+16]
			b := o.Data[j : (k-1)*n+j+16]
			mulAddBlock16(&d[0], &a[0], &b[0], k, n)
		}
		for ; j+packWidth <= n; j += packWidth {
			d := rRow[j : j+4 : j+4]
			b := o.Data[j : (k-1)*n+j+4]
			mulAddBlock4(&d[0], &a[0], &b[0], k, n)
		}
	}
}
