//go:build amd64

package tensor

// fmaBlock8 accumulates d[0:8] += Σ_{kk<k} a[kk] · b[kk·stride : kk·stride+8]
// with one 8-lane fused multiply-add per kk. Each lane is one output cell,
// accumulated in ascending k — the same per-cell op sequence as the pure-Go
// kernels, with the mul→add intermediate rounding fused away. k must be > 0.
//
//go:noescape
func fmaBlock8(d, a, b *float32, k, stride int)

// fmaBlock16 is fmaBlock8 over two adjacent 8-lane column blocks
// (d[0:16]): two independent FMA chains. k must be > 0.
//
//go:noescape
func fmaBlock16(d, a, b *float32, k, stride int)

// fmaBlock32 is fmaBlock8 over four adjacent 8-lane column blocks
// (d[0:32]), giving the out-of-order core four independent FMA chains to
// overlap against the ~4-cycle FMA latency. k must be > 0.
//
//go:noescape
func fmaBlock32(d, a, b *float32, k, stride int)

// fmaTile4 is the register tile: d[r*n+c] += Σ_{kk<k} a[r*k+kk] · b[kk*n+c]
// for the four rows r < 4 and the columns c < cols, cols a positive multiple
// of 8, sixteen columns by four rows in flight. d and b have row stride n, a
// row stride k. Each cell's op sequence is fmaBlock8's. k must be > 0.
//
//go:noescape
func fmaTile4(d, a, b *float32, k, n, cols int)

// mulAddTail32 is the masked tail (kernels32tail_amd64.s): d[r*n+c] +=
// Σ_{kk<k, a[r*k+kk]≠0} a[r*k+kk] · b[kk*n+c] for r < rows and the c < 8
// lanes whose word at mask is set, one unfused multiply then add per term —
// the pure-Go tail loop's sequence, four rows in flight. k and rows must be
// > 0; mask points into act32Tab's tail-mask rows.
//
//go:noescape
func mulAddTail32(d, a, b *float32, k, n, rows int, mask *float32)
