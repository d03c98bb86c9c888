package tensor

import (
	"fmt"
	"math"
)

// Destination-passing variants of the elementwise and matrix kernels. Each
// writes its result into dst instead of allocating, which lets the autodiff
// tape draw every intermediate value from a reusable Arena. Kernels that
// accumulate (+=) document that dst must be zeroed; Arena.Alloc and New both
// guarantee that.
//
// The softmax and log-softmax exponentials evaluate through the float64
// library form math.Exp and their sums accumulate in float64, in index
// order, for both element types: for float64 the conversions are no-ops
// (the code is bit-for-bit the pre-generic float64 kernel), for float32 the
// accumulation is the one place a softmax visibly loses precision over long
// rows. The exponentials run four at a time on the probed lanes of
// kernels64act.go (expSlice64), which are math.Exp's bits or stand down.
// σ and tanh differ by element type (sigmoidSlice, tanhSlice): for float64
// they are DEFINED by libm — 1/(1+math.Exp(−x)) and math.Tanh(x) — whose
// amd64 exp has an FMA and a non-FMA path chosen at process start, so
// float64 bits are per libm path; the AVX2 lanes of kernels64act.go
// reproduce the FMA path bit for bit where a start-up probe confirms it and
// otherwise stand down. For float32 they are the repo's own functions of
// kernels32act.go.

func dstShapeCheck[T Float](dst *MatrixOf[T], rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// AddInto sets dst = a + b.
func AddInto[T Float](dst, a, b *MatrixOf[T]) {
	a.shapeCheck(b, "AddInto")
	dstShapeCheck(dst, a.Rows, a.Cols, "AddInto")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	debugFinite("AddInto", dst)
}

// MulInto sets dst = a ⊙ b.
func MulInto[T Float](dst, a, b *MatrixOf[T]) {
	a.shapeCheck(b, "MulInto")
	dstShapeCheck(dst, a.Rows, a.Cols, "MulInto")
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
	debugFinite("MulInto", dst)
}

// ScaleInto sets dst = s*a.
func ScaleInto[T Float](dst, a *MatrixOf[T], s T) {
	dstShapeCheck(dst, a.Rows, a.Cols, "ScaleInto")
	for i, v := range a.Data {
		dst.Data[i] = s * v
	}
	debugFinite("ScaleInto", dst)
}

// AddRowVectorInto sets dst = a with the 1×cols vector v added to each row.
func AddRowVectorInto[T Float](dst, a, v *MatrixOf[T]) {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVectorInto wants 1x%d, got %dx%d", a.Cols, v.Rows, v.Cols))
	}
	dstShapeCheck(dst, a.Rows, a.Cols, "AddRowVectorInto")
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		out := dst.Row(i)
		for j, x := range row {
			out[j] = x + v.Data[j]
		}
	}
	debugFinite("AddRowVectorInto", dst)
}

// MatMulInto accumulates dst += m·o. dst must be zeroed for a plain product.
func MatMulInto[T Float](dst, m, o *MatrixOf[T]) {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dim mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	dstShapeCheck(dst, m.Rows, o.Cols, "MatMulInto")
	matMulInto(dst, m, o)
	debugFinite("MatMulInto", dst)
}

// MatMulTransBInto sets dst = m·oᵀ (every cell written, no zeroing needed).
func MatMulTransBInto[T Float](dst, m, o *MatrixOf[T]) {
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransBInto dim mismatch %dx%d · (%dx%d)ᵀ", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	dstShapeCheck(dst, m.Rows, o.Rows, "MatMulTransBInto")
	matMulTransB(dst, m, o)
	debugFinite("MatMulTransBInto", dst)
}

// MatMulTransAInto accumulates dst += mᵀ·o. dst must be zeroed for a plain
// product.
func MatMulTransAInto[T Float](dst, m, o *MatrixOf[T]) {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransAInto dim mismatch (%dx%d)ᵀ · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	dstShapeCheck(dst, m.Cols, o.Cols, "MatMulTransAInto")
	matMulTransA(dst, m, o)
	debugFinite("MatMulTransAInto", dst)
}

// TransposeInto sets dst = mᵀ.
func TransposeInto[T Float](dst, m *MatrixOf[T]) {
	dstShapeCheck(dst, m.Cols, m.Rows, "TransposeInto")
	transposeBlocked(dst, m)
	debugFinite("TransposeInto", dst)
}

// TanhInto sets dst = tanh(m) elementwise.
func TanhInto[T Float](dst, m *MatrixOf[T]) {
	dstShapeCheck(dst, m.Rows, m.Cols, "TanhInto")
	tanhSlice(dst.Data, m.Data)
	debugFinite("TanhInto", dst)
}

// SigmoidInto sets dst = σ(m) elementwise.
func SigmoidInto[T Float](dst, m *MatrixOf[T]) {
	dstShapeCheck(dst, m.Rows, m.Cols, "SigmoidInto")
	sigmoidSlice(dst.Data, m.Data)
	debugFinite("SigmoidInto", dst)
}

// tanhSlice sets dst[i] = tanh(src[i]) over equal-length slices, which may
// be the same slice: math.Tanh (or its bit-equal lanes) for float64, tanh32
// (or its lanes) for float32.
func tanhSlice[T Float](dst, src []T) {
	switch dst := any(dst).(type) {
	case []float64:
		tanhSlice64(dst, any(src).([]float64))
	case []float32:
		tanhSlice32(dst, any(src).([]float32))
	}
}

// sigmoidSlice is tanhSlice for σ: 1/(1+math.Exp(−x)) (or its bit-equal
// lanes) for float64, sigmoid32 (or its lanes) for float32.
func sigmoidSlice[T Float](dst, src []T) {
	switch dst := any(dst).(type) {
	case []float64:
		sigmoidSlice64(dst, any(src).([]float64))
	case []float32:
		sigmoidSlice32(dst, any(src).([]float32))
	}
}

// LSTMCellInto advances an LSTM one step from its pre-activations, fused:
// for each row it forms the gates (in + rec) + b, applies σ to the input,
// forget and output gates and tanh to the cell gate, and writes the new cell
// state cOut = f·c + i·g and hidden state hOut = o·tanh(cOut). rec holds the
// recurrent product h·Wh on entry (rows×4h, gate layout [i | f | g | o]) and
// the activated gates on return; in is the input projection x·Wx (rows×4h),
// b the bias (1×4h), c the previous cell state (rows×h).
//
// Every element sees the operations of the unfused op chain (AddInto,
// AddRowVectorInto, SigmoidInto/TanhInto on column slices, MulInto, AddInto,
// TanhInto, MulInto) in the same order, each rounded once — the products of
// the cell update are converted before they are added, so no architecture
// fuses them — which makes the result bitwise identical to that chain for
// both element types (nn's TestLSTMCellFusedMatchesOpChain). What the fusion
// removes is the chain's intermediate matrices and its four column copies.
func LSTMCellInto[T Float](hOut, cOut, rec, in, b, c *MatrixOf[T]) {
	rows, h := c.Rows, c.Cols
	dstShapeCheck(hOut, rows, h, "LSTMCellInto")
	dstShapeCheck(cOut, rows, h, "LSTMCellInto")
	dstShapeCheck(rec, rows, 4*h, "LSTMCellInto")
	if in.Rows != rows || in.Cols != 4*h || b.Rows != 1 || b.Cols != 4*h {
		panic(fmt.Sprintf("tensor: LSTMCellInto wants in %dx%d and b 1x%d, got %dx%d and %dx%d",
			rows, 4*h, 4*h, in.Rows, in.Cols, b.Rows, b.Cols))
	}
	for r := 0; r < rows; r++ {
		gates := rec.Row(r)
		gateSumSlice(gates, in.Row(r), b.Data)
		sigmoidSlice(gates[:2*h], gates[:2*h])
		tanhSlice(gates[2*h:3*h], gates[2*h:3*h])
		sigmoidSlice(gates[3*h:], gates[3*h:])
		i, f, g, o := gates[:h], gates[h:2*h], gates[2*h:3*h], gates[3*h:]
		cRow, cNew, hNew := c.Row(r), cOut.Row(r), hOut.Row(r)
		cellUpdateSlice(cNew, f, cRow, i, g)
		tanhSlice(hNew, cNew)
		mulSlice(hNew, o)
	}
	debugFinite("LSTMCellInto", hOut)
	debugFinite("LSTMCellInto", cOut)
}

// gateSumSlice, cellUpdateSlice and mulSlice are LSTMCellInto's elementwise
// loops over equal-length slices. The Go loops are the definition; where the
// CPU has the lanes the same operations run eight float32s or four float64s
// at a time, each still rounding on its own. The float32 lanes mask their
// own tail; the float64 ones take whole vectors and leave the last n mod 4
// elements, from index j on, to the Go loop.

// gateSumSlice sets gates[j] = (in[j] + gates[j]) + b[j].
func gateSumSlice[T Float](gates, in, b []T) {
	n := len(gates)
	in, b = in[:n], b[:n]
	j := 0
	switch g := any(gates).(type) {
	case []float32:
		if useLaneKernels && n > 0 {
			lstmGateSumLanes32(&g[0], &any(in).([]float32)[0], &any(b).([]float32)[0], n, &act32Tab)
			return
		}
	case []float64:
		if useLaneKernels && n >= 4 {
			j = n &^ 3
			lstmGateSumLanes64(&g[0], &any(in).([]float64)[0], &any(b).([]float64)[0], j)
		}
	}
	for ; j < n; j++ {
		gates[j] = (in[j] + gates[j]) + b[j]
	}
}

// cellUpdateSlice sets cOut[j] = f[j]·c[j] + i[j]·g[j], each product rounded
// before the add (the conversions keep any architecture from fusing them).
func cellUpdateSlice[T Float](cOut, f, c, i, g []T) {
	n := len(cOut)
	f, c, i, g = f[:n], c[:n], i[:n], g[:n]
	j := 0
	switch d := any(cOut).(type) {
	case []float32:
		if useLaneKernels && n > 0 {
			lstmCellUpdateLanes32(&d[0], &any(f).([]float32)[0], &any(c).([]float32)[0],
				&any(i).([]float32)[0], &any(g).([]float32)[0], n, &act32Tab)
			return
		}
	case []float64:
		if useLaneKernels && n >= 4 {
			j = n &^ 3
			lstmCellUpdateLanes64(&d[0], &any(f).([]float64)[0], &any(c).([]float64)[0],
				&any(i).([]float64)[0], &any(g).([]float64)[0], j)
		}
	}
	for ; j < n; j++ {
		cOut[j] = T(f[j]*c[j]) + T(i[j]*g[j])
	}
}

// mulSlice sets dst[j] = o[j]·dst[j].
func mulSlice[T Float](dst, o []T) {
	n := len(dst)
	o = o[:n]
	j := 0
	switch d := any(dst).(type) {
	case []float32:
		if useLaneKernels && n > 0 {
			mulLanes32(&d[0], &any(o).([]float32)[0], n, &act32Tab)
			return
		}
	case []float64:
		if useLaneKernels && n >= 4 {
			j = n &^ 3
			mulLanes64(&d[0], &any(o).([]float64)[0], j)
		}
	}
	for ; j < n; j++ {
		dst[j] = o[j] * dst[j]
	}
}

// ReLUInto sets dst = max(0, m) elementwise.
func ReLUInto[T Float](dst, m *MatrixOf[T]) {
	dstShapeCheck(dst, m.Rows, m.Cols, "ReLUInto")
	for i, v := range m.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
	debugFinite("ReLUInto", dst)
}

// SoftmaxRowsInto sets dst to the row-wise softmax of m.
func SoftmaxRowsInto[T Float](dst, m *MatrixOf[T]) {
	dstShapeCheck(dst, m.Rows, m.Cols, "SoftmaxRowsInto")
	for i := 0; i < m.Rows; i++ {
		softmaxInto(dst.Row(i), m.Row(i))
	}
	debugFinite("SoftmaxRowsInto", dst)
}

// softmaxInto computes a numerically stable softmax of src into dst with the
// max-subtraction trick.
func softmaxInto[T Float](dst, src []T) {
	sum := expShifted(dst, src, rowMax(src))
	inv := T(1 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

// rowMax returns the largest element of a non-empty row.
func rowMax[T Float](src []T) T {
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// expChunk is how many exponentials expShifted stages at once, in a stack
// buffer: a row of any width stays allocation-free.
const expChunk = 128

// expShifted computes e_j = math.Exp(float64(src[j] − mx)) for every j —
// through expSlice64, so four at a time on the probed lanes, bit for bit the
// library's value — stores T(e_j) in dst[j] unless dst is nil, and returns
// the e_j summed in float64 in index order.
func expShifted[T Float](dst, src []T, mx T) float64 {
	var buf [expChunk]float64
	var sum float64
	for lo := 0; lo < len(src); lo += expChunk {
		es := buf[:min(expChunk, len(src)-lo)]
		for j := range es {
			es[j] = float64(src[lo+j] - mx)
		}
		expSlice64(es, es)
		if dst != nil {
			for j, e := range es {
				dst[lo+j] = T(e)
			}
		}
		for _, e := range es {
			sum += e
		}
	}
	return sum
}

// LogSoftmaxRowsInto sets dst to the row-wise log-softmax of m.
func LogSoftmaxRowsInto[T Float](dst, m *MatrixOf[T]) {
	dstShapeCheck(dst, m.Rows, m.Cols, "LogSoftmaxRowsInto")
	for i := 0; i < m.Rows; i++ {
		logSoftmaxInto(dst.Row(i), m.Row(i))
	}
	debugFinite("LogSoftmaxRowsInto", dst)
}

// logSoftmaxInto computes the log-softmax of src into dst, src minus its
// log-sum-exp.
func logSoftmaxInto[T Float](dst, src []T) {
	mx := rowMax(src)
	lse := float64(mx) + math.Log(expShifted(nil, src, mx))
	for j, v := range src {
		dst[j] = T(float64(v) - lse)
	}
}

// ConcatRowsInto stacks ms vertically into dst.
func ConcatRowsInto[T Float](dst *MatrixOf[T], ms ...*MatrixOf[T]) {
	off := 0
	for _, m := range ms {
		if m.Cols != dst.Cols {
			panic(fmt.Sprintf("tensor: ConcatRowsInto col mismatch %d vs %d", m.Cols, dst.Cols))
		}
		copy(dst.Data[off:], m.Data)
		off += len(m.Data)
	}
	if off != len(dst.Data) {
		panic("tensor: ConcatRowsInto row count mismatch")
	}
	debugFinite("ConcatRowsInto", dst)
}

// ConcatColsInto joins ms horizontally into dst.
func ConcatColsInto[T Float](dst *MatrixOf[T], ms ...*MatrixOf[T]) {
	for i := 0; i < dst.Rows; i++ {
		out := dst.Row(i)
		off := 0
		for _, m := range ms {
			if m.Rows != dst.Rows {
				panic(fmt.Sprintf("tensor: ConcatColsInto row mismatch %d vs %d", m.Rows, dst.Rows))
			}
			copy(out[off:], m.Row(i))
			off += m.Cols
		}
		if off != dst.Cols {
			panic("tensor: ConcatColsInto col count mismatch")
		}
	}
	debugFinite("ConcatColsInto", dst)
}
