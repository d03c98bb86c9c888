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

// mulAddPanels16 accumulates d[0:16] += Σ_{kk<k} a[kk] · row kk of the four
// consecutive packed 4-column panels at p (p[0:16k]). No zero skip. k must
// be > 0.
//
//go:noescape
func mulAddPanels16(d, a, p *float64, k int)

// mulAddPanel4 is mulAddPanels16 over one packed panel (d[0:4], p[0:4k]).
// k must be > 0.
//
//go:noescape
func mulAddPanel4(d, a, p *float64, k int)

// matMulRowsLanes is matMulRows' lane body: column-block outer / k inner
// with the accumulators in YMM registers — 16 columns, then 4, then the
// scalar loop for the last < 4 — instead of the k-outer axpy through
// memory. Every cell still receives its a != 0 terms in ascending k, each
// multiplied, rounded, added and rounded, so it is bitwise identical to
// matMulRows. The caller guarantees o.Rows > 0.
func matMulRowsLanes(r, m, o *Matrix, lo, hi int) {
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
		for ; j < n; j++ {
			s := rRow[j]
			for kk, v := range a {
				if v != 0 {
					s += v * o.Data[kk*n+j]
				}
			}
			rRow[j] = s
		}
	}
}

// matMulPackedRowsLanes is matMulPackedRows' lane body: four packed panels
// per pass, then one, then the scalar loop for the narrow trailing panel.
// Same per-cell op sequence as matMulPackedRows (ascending k, no skip), so
// bitwise identical to it. The caller guarantees o.Rows > 0.
func matMulPackedRowsLanes(r, m, o *Matrix, panels []float64, lo, hi int) {
	k, n := o.Rows, o.Cols
	for i := lo; i < hi; i++ {
		a := m.Row(i)[:k]
		rRow := r.Row(i)
		j, pos := 0, 0
		for ; j+16 <= n; j += 16 {
			d := rRow[j : j+16 : j+16]
			p := panels[pos : pos+16*k]
			mulAddPanels16(&d[0], &a[0], &p[0], k)
			pos += 16 * k
		}
		for ; j+packWidth <= n; j += packWidth {
			d := rRow[j : j+4 : j+4]
			p := panels[pos : pos+4*k]
			mulAddPanel4(&d[0], &a[0], &p[0], k)
			pos += 4 * k
		}
		w := n - j
		for c := 0; c < w; c++ {
			s := rRow[j+c]
			for kk, v := range a {
				s += v * panels[pos+kk*w+c]
			}
			rRow[j+c] = s
		}
	}
}
