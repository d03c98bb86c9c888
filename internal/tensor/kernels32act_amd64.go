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

// lstmGateSumLanes32, lstmCellUpdateLanes32 and mulLanes32 are the three
// elementwise loops of LSTMCellInto, eight lanes at a time with a masked
// load and store for the last n mod 8: gates[j] = (in[j] + gates[j]) + b[j];
// cOut[j] = fg[j]·c[j] + ig[j]·gg[j] with both products rounded before the add;
// dst[j] = o[j]·dst[j]. Every operation rounds on its own, as in the Go
// loops. tab is &act32Tab (for its tail mask). n must be > 0.
//
//go:noescape
func lstmGateSumLanes32(gates, in, b *float32, n int, tab *[actRows][8]float32)

//go:noescape
func lstmCellUpdateLanes32(cOut, fg, c, ig, gg *float32, n int, tab *[actRows][8]float32)

//go:noescape
func mulLanes32(dst, o *float32, n int, tab *[actRows][8]float32)
