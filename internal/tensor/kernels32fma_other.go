//go:build !amd64

package tensor

// Non-amd64 targets run the pure-Go float32 kernel bodies; the FMA lane
// kernels are never dispatched (useLaneKernels is false) and these stubs
// exist only to satisfy the references.

func fmaBlock8(d, a, b *float32, k, stride int)  { panic("tensor: fmaBlock8 without FMA support") }
func fmaBlock32(d, a, b *float32, k, stride int) { panic("tensor: fmaBlock32 without FMA support") }
func fmaPanels32(d, a, p *float32, k int)        { panic("tensor: fmaPanels32 without FMA support") }
