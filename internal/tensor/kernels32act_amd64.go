//go:build amd64

package tensor

// sigmoidLanes32 sets dst[i] = σ(src[i]) for i < n, eight lanes at a time
// with a masked load and store for the last n mod 8, performing per lane
// exactly the operations of sigmoid32 (kernels32act.go) in the same order.
// dst may equal src. tab is &act32Tab. n must be > 0.
//
//go:noescape
func sigmoidLanes32(dst, src *float32, n int, tab *[actRows][8]float32)

// tanhLanes32 is sigmoidLanes32 for tanh32; every lane evaluates both of
// tanh32's branches and keeps the one its |x| selects.
//
//go:noescape
func tanhLanes32(dst, src *float32, n int, tab *[actRows][8]float32)
