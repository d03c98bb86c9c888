package tensor

// --- Reference kernels ------------------------------------------------------
//
// The pre-blocking naive loops, kept verbatim as the ground truth the
// property tests in kernels_test.go compare every blocked kernel against.
// They are not used on any production path.

// referenceMatMul accumulates dst += m·o with the original ikj loops.
func referenceMatMul(dst, m, o *Matrix) {
	for i := 0; i < m.Rows; i++ {
		mRow := m.Row(i)
		rRow := dst.Row(i)
		for k, a := range mRow {
			if a == 0 {
				continue
			}
			oRow := o.Row(k)
			for j, b := range oRow {
				rRow[j] += a * b
			}
		}
	}
}

// referenceMatMulTransB sets dst = m·oᵀ with the original dot-product loops.
func referenceMatMulTransB(dst, m, o *Matrix) {
	for i := 0; i < m.Rows; i++ {
		mRow := m.Row(i)
		rRow := dst.Row(i)
		for j := 0; j < o.Rows; j++ {
			oRow := o.Row(j)
			var s float64
			for k, a := range mRow {
				s += a * oRow[k]
			}
			rRow[j] = s
		}
	}
}

// referenceMatMulTransA accumulates dst += mᵀ·o with the original
// zero-skipping loops.
func referenceMatMulTransA(dst, m, o *Matrix) {
	for k := 0; k < m.Rows; k++ {
		mRow := m.Row(k)
		oRow := o.Row(k)
		for i, a := range mRow {
			if a == 0 {
				continue
			}
			rRow := dst.Row(i)
			for j, b := range oRow {
				rRow[j] += a * b
			}
		}
	}
}

// referenceTranspose sets dst = mᵀ with the original column-strided writes.
func referenceTranspose(dst, m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
}
