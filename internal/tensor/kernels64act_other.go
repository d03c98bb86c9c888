//go:build !amd64

package tensor

// Non-amd64 targets evaluate the float64 exp/σ/tanh through the library alone
// and run the pure-Go cell loops; the lanes are never dispatched
// (useLaneKernels is false) and these stubs exist only to satisfy the
// references.

func sigmoidLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int {
	panic("tensor: sigmoidLanes64 without AVX2 support")
}

func expLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int {
	panic("tensor: expLanes64 without AVX2 support")
}

func tanhLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int {
	panic("tensor: tanhLanes64 without AVX2 support")
}

func lstmGateSumLanes64(gates, in, b *float64, n int) {
	panic("tensor: lstmGateSumLanes64 without AVX2 support")
}

func lstmCellUpdateLanes64(cOut, fg, c, ig, gg *float64, n int) {
	panic("tensor: lstmCellUpdateLanes64 without AVX2 support")
}

func mulLanes64(dst, o *float64, n int) {
	panic("tensor: mulLanes64 without AVX2 support")
}
