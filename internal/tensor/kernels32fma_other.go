//go:build !amd64

package tensor

// Non-amd64 targets run the pure-Go float32 kernel bodies; the FMA lane
// kernels are never dispatched (useLaneKernels is false) and these stubs
// exist only to satisfy the references.

func fmaBlock8(d, a, b *float32, k, stride int)  { panic("tensor: fmaBlock8 without FMA support") }
func fmaBlock16(d, a, b *float32, k, stride int) { panic("tensor: fmaBlock16 without FMA support") }
func fmaBlock32(d, a, b *float32, k, stride int) { panic("tensor: fmaBlock32 without FMA support") }
func fmaTile4(d, a, b *float32, k, n, cols int)  { panic("tensor: fmaTile4 without FMA support") }
func mulAddTail32(d, a, b *float32, k, n, rows int, mask *float32) {
	panic("tensor: mulAddTail32 without AVX2 support")
}
