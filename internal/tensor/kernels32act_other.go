//go:build !amd64

package tensor

// Non-amd64 targets run the pure-Go float32 σ/tanh bodies; the lanes are
// never dispatched (useLaneKernels is false) and these stubs exist only to
// satisfy the references.

func sigmoidLanes32(dst, src *float32, n int, tab *[actRows][8]float32) {
	panic("tensor: sigmoidLanes32 without AVX2 support")
}

func tanhLanes32(dst, src *float32, n int, tab *[actRows][8]float32) {
	panic("tensor: tanhLanes32 without AVX2 support")
}

func lstmGateSumLanes32(gates, in, b *float32, n int, tab *[actRows][8]float32) {
	panic("tensor: lstmGateSumLanes32 without AVX2 support")
}

func lstmCellUpdateLanes32(cOut, fg, c, ig, gg *float32, n int, tab *[actRows][8]float32) {
	panic("tensor: lstmCellUpdateLanes32 without AVX2 support")
}

func mulLanes32(dst, o *float32, n int, tab *[actRows][8]float32) {
	panic("tensor: mulLanes32 without AVX2 support")
}
