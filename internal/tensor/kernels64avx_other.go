//go:build !amd64

package tensor

// Non-amd64 targets run the pure-Go float64 kernel bodies; the lane bodies
// are never dispatched (useLaneKernels is false) and these stubs exist only
// to satisfy the references.

func matMulRowsLanes(r, m, o *Matrix, lo, hi int)   { panic("tensor: matMulRowsLanes without AVX2") }
func mulAddBlock16(d, a, b *float64, k, stride int) { panic("tensor: mulAddBlock16 without AVX2") }
func mulAddBlock4(d, a, b *float64, k, stride int)  { panic("tensor: mulAddBlock4 without AVX2") }
