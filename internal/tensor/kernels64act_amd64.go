//go:build amd64

package tensor

// sigmoidLanes64 sets dst[i] = 1/(1+math.Exp(−src[i])) four lanes at a time,
// performing per lane exactly the operations of the library's FMA path
// (kernels64act.go), and returns how many leading elements it stored: n, or
// the start of the first vector holding a NaN or an |x| > act64Guard, which
// it leaves untouched for the library. dst may equal src. tab is &act64Tab.
// n must be a positive multiple of 4.
//
//go:noescape
func sigmoidLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int

// tanhLanes64 is sigmoidLanes64 for math.Tanh. A vector whose lanes all lie
// on one side of 0.625 runs that branch of math.tanh alone; a mixed one runs
// both and keeps, per lane, the one its |x| selects.
//
//go:noescape
func tanhLanes64(dst, src *float64, n int, tab *[act64Rows][4]float64) int

// lstmGateSumLanes64, lstmCellUpdateLanes64 and mulLanes64 are the three
// elementwise loops of LSTMCellInto over n float64s, n a positive multiple
// of 4 (the Go loops take the tail): gates[j] = (in[j] + gates[j]) + b[j];
// cOut[j] = fg[j]·c[j] + ig[j]·gg[j] with both products rounded before the
// add; dst[j] = o[j]·dst[j]. Every operation rounds on its own, as in the Go
// loops.
//
//go:noescape
func lstmGateSumLanes64(gates, in, b *float64, n int)

//go:noescape
func lstmCellUpdateLanes64(cOut, fg, c, ig, gg *float64, n int)

//go:noescape
func mulLanes64(dst, o *float64, n int)
