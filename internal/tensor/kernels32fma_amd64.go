//go:build amd64

package tensor

// fmaBlock8 accumulates d[0:8] += Σ_{kk<k} a[kk] · b[kk·stride : kk·stride+8]
// with one 8-lane fused multiply-add per kk. Each lane is one output cell,
// accumulated in ascending k — the same per-cell op sequence as the pure-Go
// kernels, with the mul→add intermediate rounding fused away. k must be > 0.
//
//go:noescape
func fmaBlock8(d, a, b *float32, k, stride int)

// fmaBlock32 is fmaBlock8 over four adjacent 8-lane column blocks
// (d[0:32]), giving the out-of-order core four independent FMA chains to
// overlap against the ~4-cycle FMA latency. k must be > 0.
//
//go:noescape
func fmaBlock32(d, a, b *float32, k, stride int)

// fmaPanels32 is fmaBlock32 for panel-packed operands: the four 8-lane
// blocks read four consecutive packed panels at p, p+8k, p+16k and p+24k
// (each panel k rows of 8 contiguous floats). k must be > 0.
//
//go:noescape
func fmaPanels32(d, a, p *float32, k int)
