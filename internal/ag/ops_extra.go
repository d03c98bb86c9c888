package ag

import (
	"fmt"
	"math"

	"webbrief/internal/tensor"
)

// SliceCols takes columns [lo, hi) of a. It is used to split fused LSTM gate
// pre-activations and to separate attention heads.
func (t *TapeOf[T]) SliceCols(a *NodeOf[T], lo, hi int) *NodeOf[T] {
	if lo < 0 || hi > a.Value.Cols || lo >= hi {
		panic(fmt.Sprintf("ag: SliceCols [%d,%d) out of range for %d cols", lo, hi, a.Value.Cols))
	}
	val := t.allocUninit(a.Value.Rows, hi-lo)
	for i := 0; i < a.Value.Rows; i++ {
		copy(val.Row(i), a.Value.Row(i)[lo:hi])
	}
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := 0; i < val.Rows; i++ {
			src := n.Grad.Row(i)
			dst := g.Row(i)[lo:hi]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return n
}

// MulRowVector multiplies every row of a elementwise by the 1×cols vector v
// (broadcast Hadamard product), the gain step of layer normalisation.
func (t *TapeOf[T]) MulRowVector(a, v *NodeOf[T]) *NodeOf[T] {
	if v.Value.Rows != 1 || v.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("ag: MulRowVector wants 1x%d, got %dx%d", a.Value.Cols, v.Value.Rows, v.Value.Cols))
	}
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		src := a.Value.Row(i)
		dst := val.Row(i)
		for j, x := range src {
			dst[j] = x * v.Value.Data[j]
		}
	}
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		ga := a.grad()
		gv := v.grad()
		for i := 0; i < val.Rows; i++ {
			dy := n.Grad.Row(i)
			ar := a.Value.Row(i)
			gr := ga.Row(i)
			for j, d := range dy {
				gr[j] += d * v.Value.Data[j]
				gv.Data[j] += d * ar[j]
			}
		}
	}
	return n
}

// RowNorm standardises each row of a to zero mean and unit variance:
// y_ij = (x_ij - μ_i) / sqrt(σ²_i + eps). It is the core of layer
// normalisation; combine with MulRowVector and AddRowVector for the affine
// gain and bias.
func (t *TapeOf[T]) RowNorm(a *NodeOf[T], eps float64) *NodeOf[T] {
	rows, cols := a.Value.Rows, a.Value.Cols
	val := t.alloc(rows, cols)
	invStd := t.floats(rows)
	for i := 0; i < rows; i++ {
		src := a.Value.Row(i)
		var mean T
		for _, x := range src {
			mean += x
		}
		mean /= T(cols)
		var variance T
		for _, x := range src {
			d := x - mean
			variance += d * d
		}
		variance /= T(cols)
		is := T(1 / math.Sqrt(float64(variance)+eps))
		invStd[i] = is
		dst := val.Row(i)
		for j, x := range src {
			dst[j] = (x - mean) * is
		}
	}
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := 0; i < rows; i++ {
			y := val.Row(i)
			dy := n.Grad.Row(i)
			var meanDy, meanDyY T
			for j, d := range dy {
				meanDy += d
				meanDyY += d * y[j]
			}
			meanDy /= T(cols)
			meanDyY /= T(cols)
			is := invStd[i]
			gr := g.Row(i)
			for j, d := range dy {
				gr[j] += is * (d - meanDy - y[j]*meanDyY)
			}
		}
	}
	return n
}

// L1Between computes the mean absolute elementwise difference between two
// nodes, with gradient flowing into both — the identification-distillation
// loss L_ID where the teacher-side attention projection is itself trained.
func (t *TapeOf[T]) L1Between(a, b *NodeOf[T]) *NodeOf[T] {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("ag: L1Between shape mismatch %dx%d vs %dx%d",
			a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	var loss float64
	for i, v := range a.Value.Data {
		loss += math.Abs(float64(v - b.Value.Data[i]))
	}
	inv := 1 / float64(len(a.Value.Data))
	n := t.scalar(loss * inv)
	if t.nograd {
		return n
	}
	n.back = func() {
		d := n.Grad.Data[0] * T(inv)
		ga := a.grad()
		gb := b.grad()
		for i, v := range a.Value.Data {
			switch {
			case v > b.Value.Data[i]:
				ga.Data[i] += d
				gb.Data[i] -= d
			case v < b.Value.Data[i]:
				ga.Data[i] -= d
				gb.Data[i] += d
			}
		}
	}
	return n
}

// AddMasked adds mask (a fixed matrix, typically 0 / -inf-like values) to a.
// It is used to block attention to padding positions; the mask receives no
// gradient.
func (t *TapeOf[T]) AddMasked(a *NodeOf[T], mask *tensor.MatrixOf[T]) *NodeOf[T] {
	if !mask.SameShape(a.Value) {
		panic("ag: AddMasked shape mismatch")
	}
	val := t.alloc(a.Value.Rows, a.Value.Cols)
	tensor.AddInto(val, a.Value, mask)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() { a.addGrad(n.Grad) }
	return n
}
