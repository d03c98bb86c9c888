// Package tensor is a shapedoc fixture: its import path ends in "tensor",
// so exported kernels with matrix parameters must carry the
// shape-check-then-panic preamble.
package tensor

import "fmt"

// MatrixOf mirrors the real generic dense matrix type, Matrix its float64
// alias.
type MatrixOf[T float32 | float64] struct {
	Rows, Cols int
	Data       []T
}

type Matrix = MatrixOf[float64]

func dstShapeCheck(dst *Matrix, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// GoodHelperCheck validates through the shared helper.
func GoodHelperCheck(dst, a *Matrix) {
	dstShapeCheck(dst, a.Rows, a.Cols, "GoodHelperCheck")
	for i, v := range a.Data {
		dst.Data[i] = v
	}
}

// GoodInlinePanic validates with an explicit guard.
func GoodInlinePanic(dst, a *Matrix) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: GoodInlinePanic shape mismatch")
	}
	for i, v := range a.Data {
		dst.Data[i] = v + v
	}
}

// GoodMethod checks shapes on a method receiver's argument.
func (m *MatrixOf[T]) GoodMethod(o *MatrixOf[T]) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: GoodMethod shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// BadInto writes through dst with no validation at all.
func BadInto(dst, a *Matrix) { // want "no shape-check-then-panic preamble"
	for i, v := range a.Data {
		dst.Data[i] = v * 2
	}
}

// BadGeneric is a generic kernel with no validation.
func BadGeneric[T float32 | float64](dst, a *MatrixOf[T]) { // want "no shape-check-then-panic preamble"
	for i, v := range a.Data {
		dst.Data[i] = v
	}
}

// BadVariadic skips validation of its variadic matrices.
func BadVariadic(dst *Matrix, ms ...*Matrix) { // want "no shape-check-then-panic preamble"
	for _, m := range ms {
		for i, v := range m.Data {
			dst.Data[i] += v
		}
	}
}

// SameShape is a predicate: reporting is its job, so it is exempt.
func SameShape(a, b *Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols
}

// scaleInto is unexported and out of scope.
func scaleInto(dst *Matrix, s float64) {
	for i := range dst.Data {
		dst.Data[i] *= s
	}
}

// NoMatrixArgs takes no matrix parameters and is out of scope.
func NoMatrixArgs(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

var _ = scaleInto
