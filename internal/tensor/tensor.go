// Package tensor provides dense two-dimensional matrices and the numeric
// kernels used by the autodiff and neural-network layers of the
// webpage-briefing models. Matrices are row-major and sized at construction.
//
// The package is one implementation over the element types float64 (the
// training and teacher tier) and float32 (the distilled-student serving
// tier): MatrixOf, ArenaOf and every destination-passing op are generic
// over Float, and the float64 names (Matrix, Arena, New) are plain
// instantiations, so float64-only callers never mention a type argument.
// Element-type-specific code survives only where the contracts
// differ: the matmul kernels (kernels.go promises bitwise identity with its
// references and never fuses; kernels32.go promises a k-term error envelope
// and may run AVX2+FMA lanes) and σ/tanh (libm for float64, bitwise as ever;
// kernels32act.go's own float32 functions for float32, deterministic across
// machines and within 2 ulp of libm), each reached through one type switch
// per op. The softmax exponentials and the long reductions the float32 tier
// deliberately widens are written once as T(math.F(float64(x))): a no-op
// conversion for float64, one rounding on the way out for float32.
//
// The package is deliberately restricted to rank-2 tensors: every quantity
// in the paper's models (token embeddings, hidden state sequences, attention
// maps, output distributions) is naturally a matrix, with vectors expressed
// as 1×n or n×1 matrices. Keeping a single rank removes a whole class of
// shape bugs and keeps the kernels simple enough to audit.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Float is the element-type constraint of the numeric stack. It lists the
// two types exactly (no ~): the kernel dispatch is a type switch over them.
type Float interface{ float32 | float64 }

// MatrixOf is a dense, row-major matrix of T.
type MatrixOf[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 matrix every training-side package uses.
type Matrix = MatrixOf[float64]

// Matrix32 is the float32 matrix of the student serving tier. It halves the
// bytes moved per matmul; the serving models are small enough to be
// memory-bandwidth-bound, so that width is where the tier's speedup starts.
type Matrix32 = MatrixOf[float32]

// NewOf returns a zero matrix with the given shape. It panics if either
// dimension is non-positive, since a degenerate matrix is always a caller
// bug in this codebase.
func NewOf[T Float](rows, cols int) *MatrixOf[T] {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &MatrixOf[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// New is NewOf[float64].
func New(rows, cols int) *Matrix { return NewOf[float64](rows, cols) }

// New32 is NewOf[float32].
func New32(rows, cols int) *Matrix32 { return NewOf[float32](rows, cols) }

// FromSlice wraps data in a matrix of the given shape. The slice is used
// directly, not copied; len(data) must equal rows*cols.
func FromSlice[T Float](rows, cols int, data []T) *MatrixOf[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &MatrixOf[T]{Rows: rows, Cols: cols, Data: data}
}

// Cast converts m to element type D, rounding each entry to nearest when
// narrowing (widening is exact). Teacher parameters cross the float64 →
// float32 boundary through it exactly once, at student construction.
func Cast[D, S Float](m *MatrixOf[S]) *MatrixOf[D] {
	if len(m.Data) != m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: Cast data length %d does not match shape %dx%d", len(m.Data), m.Rows, m.Cols))
	}
	r := &MatrixOf[D]{Rows: m.Rows, Cols: m.Cols, Data: make([]D, len(m.Data))}
	for i, v := range m.Data {
		r.Data[i] = D(v)
	}
	return r
}

// Randn returns a matrix with entries drawn from N(0, std²) using rng.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// Uniform returns a matrix with entries drawn uniformly from [lo, hi).
func Uniform(rows, cols int, lo, hi float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// Full returns a matrix with every entry set to v.
func Full(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// Clone returns a deep copy of m.
func (m *MatrixOf[T]) Clone() *MatrixOf[T] {
	c := NewOf[T](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns the element at row i, column j.
func (m *MatrixOf[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *MatrixOf[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shares the underlying storage).
func (m *MatrixOf[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SameShape reports whether m and o have identical dimensions.
func (m *MatrixOf[T]) SameShape(o *MatrixOf[T]) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Zero sets every entry of m to zero in place.
func (m *MatrixOf[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *MatrixOf[T]) shapeCheck(o *MatrixOf[T], op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add returns m + o.
func (m *MatrixOf[T]) Add(o *MatrixOf[T]) *MatrixOf[T] {
	m.shapeCheck(o, "Add")
	r := NewOf[T](m.Rows, m.Cols)
	for i := range m.Data {
		r.Data[i] = m.Data[i] + o.Data[i]
	}
	return r
}

// AddInPlace adds o into m and returns m.
func (m *MatrixOf[T]) AddInPlace(o *MatrixOf[T]) *MatrixOf[T] {
	m.shapeCheck(o, "AddInPlace")
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
	return m
}

// AddScaledInPlace adds s*o into m and returns m.
func (m *MatrixOf[T]) AddScaledInPlace(o *MatrixOf[T], s T) *MatrixOf[T] {
	m.shapeCheck(o, "AddScaledInPlace")
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
	return m
}

// Scale returns s*m.
func (m *MatrixOf[T]) Scale(s T) *MatrixOf[T] {
	r := NewOf[T](m.Rows, m.Cols)
	for i := range m.Data {
		r.Data[i] = s * m.Data[i]
	}
	return r
}

// parallelFlopThreshold is the approximate multiply count above which
// MatMul fans rows out across goroutines. Below it the goroutine overhead
// outweighs the work (typical matrices here are small).
const parallelFlopThreshold = 1 << 18

// parallelRows splits [0, n) into one chunk per worker and runs fn on each
// chunk concurrently. Chunks are whole register tiles (a multiple of tileRows
// rows), so only the last one can end in a ragged tile.
func parallelRows(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	chunk = (chunk + tileRows - 1) / tileRows * tileRows
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// SoftmaxRows returns row-wise softmax computed with the max-subtraction
// trick for numerical stability.
func (m *MatrixOf[T]) SoftmaxRows() *MatrixOf[T] {
	r := NewOf[T](m.Rows, m.Cols)
	SoftmaxRowsInto(r, m)
	return r
}

// LogSoftmaxRows returns row-wise log-softmax.
func (m *MatrixOf[T]) LogSoftmaxRows() *MatrixOf[T] {
	r := NewOf[T](m.Rows, m.Cols)
	LogSoftmaxRowsInto(r, m)
	return r
}

// Norm2 returns the Frobenius norm of m.
//
//wbcheck:ignore deadexport -- oracle: the distance opt's convergence tests (trainQuadratic) measure a trained parameter from its target by
func (m *MatrixOf[T]) Norm2() T {
	var s T
	for _, v := range m.Data {
		s += v * v
	}
	return T(math.Sqrt(float64(s)))
}

// MaxAbs returns the largest absolute entry.
//
//wbcheck:ignore deadexport -- oracle: the bound baselines, distill, hier, nn and wb tests assert gradients and outputs against
func (m *MatrixOf[T]) MaxAbs() T {
	var mx T
	for _, v := range m.Data {
		if a := T(math.Abs(float64(v))); a > mx {
			mx = a
		}
	}
	return mx
}

// ArgmaxRow returns the column index of the largest entry in row i.
func (m *MatrixOf[T]) ArgmaxRow(i int) int {
	row := m.Row(i)
	best := 0
	for j, v := range row[1:] {
		if v > row[best] {
			best = j + 1
		}
	}
	return best
}

// Equal reports whether m and o have the same shape and entries within tol.
//
//wbcheck:ignore deadexport -- oracle: the tolerance comparison the tensor, baselines, embed and wb equivalence and determinism tests are written in
func (m *MatrixOf[T]) Equal(o *MatrixOf[T], tol T) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if T(math.Abs(float64(v-o.Data[i]))) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are
// abbreviated to their shape.
func (m *MatrixOf[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
