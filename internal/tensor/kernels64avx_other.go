//go:build !amd64

package tensor

// Non-amd64 targets run the pure-Go float64 kernel bodies; the lane bodies
// are never dispatched (useLaneKernels is false) and these stubs exist only
// to satisfy the references.

func matMulRowsLanes(r, m, o *Matrix, lo, hi int) { panic("tensor: matMulRowsLanes without AVX2") }
