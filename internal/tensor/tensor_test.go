package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialise")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", shape[0], shape[1])
				}
			}()
			New(shape[0], shape[1])
		}()
	}
}

// into returns a fresh rows×cols matrix after fn has filled it: how these
// tests read a destination-passing kernel as a value.
func into(rows, cols int, fn func(dst *Matrix)) *Matrix {
	dst := New(rows, cols)
	fn(dst)
	return dst
}

func matMul(a, b *Matrix) *Matrix {
	return into(a.Rows, b.Cols, func(dst *Matrix) { MatMulInto(dst, a, b) })
}

func transpose(m *Matrix) *Matrix {
	return into(m.Cols, m.Rows, func(dst *Matrix) { TransposeInto(dst, m) })
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(1, 2) != 6 || m.At(0, 1) != 2 {
		t.Fatalf("FromSlice indexing wrong: %v", m)
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := a.Add(b); !got.Equal(FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Errorf("Add: %v", got)
	}
	if got := b.Clone().AddScaledInPlace(a, -1); !got.Equal(Full(2, 2, 4), 0) {
		t.Errorf("AddScaledInPlace(-1): %v", got)
	}
	if got := into(2, 2, func(dst *Matrix) { MulInto(dst, a, b) }); !got.Equal(FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Errorf("MulInto: %v", got)
	}
	if got := a.Scale(2); !got.Equal(FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Errorf("Scale: %v", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if got := matMul(a, b); !got.Equal(want, 1e-12) {
		t.Fatalf("MatMulInto: got %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 4, 1, rng)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(i, i, 1)
	}
	if got := matMul(a, eye); !got.Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if got := matMul(eye, a); !got.Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, and the fused transpose kernels agree with the
// naive compositions.
func TestMatMulTransposeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		if !transpose(matMul(a, b)).Equal(matMul(transpose(b), transpose(a)), 1e-10) {
			return false
		}
		// Fused kernels.
		bt := Randn(n, k, 1, rng)
		if !into(m, n, func(dst *Matrix) { MatMulTransBInto(dst, a, bt) }).Equal(matMul(a, transpose(bt)), 1e-10) {
			return false
		}
		at := Randn(k, m, 1, rng)
		c := Randn(k, n, 1, rng)
		return into(m, n, func(dst *Matrix) { MatMulTransAInto(dst, at, c) }).Equal(matMul(transpose(at), c), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	s := m.SoftmaxRows()
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Large-but-equal logits must give the uniform distribution, not NaN.
	if math.Abs(s.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatalf("stability trick failed: %v", s.Row(1))
	}
}

func TestLogSoftmaxMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Randn(4, 7, 3, rng)
	ls := m.LogSoftmaxRows()
	s := m.SoftmaxRows()
	for i, v := range ls.Data {
		if math.Abs(math.Exp(v)-s.Data[i]) > 1e-10 {
			t.Fatalf("exp(logsoftmax) != softmax at %d", i)
		}
	}
}

func TestSoftmaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Randn(1+r.Intn(5), 1+r.Intn(8), 5, r)
		s := m.SoftmaxRows()
		for i := 0; i < s.Rows; i++ {
			var sum float64
			for _, v := range s.Row(i) {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		// Shift-invariance: softmax(x+c) == softmax(x).
		shifted := m.Clone()
		for i := range shifted.Data {
			shifted.Data[i] += 42
		}
		return shifted.SoftmaxRows().Equal(s, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatAndSlice(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 1, []float64{9, 8})
	c := into(2, 3, func(dst *Matrix) { ConcatColsInto(dst, a, b) })
	if !c.Equal(FromSlice(2, 3, []float64{1, 2, 9, 3, 4, 8}), 0) {
		t.Fatalf("ConcatColsInto: %v", c)
	}
	d := into(3, 2, func(dst *Matrix) { ConcatRowsInto(dst, a, FromSlice(1, 2, []float64{7, 7})) })
	if !d.Equal(FromSlice(3, 2, []float64{1, 2, 3, 4, 7, 7}), 0) {
		t.Fatalf("ConcatRowsInto: %v", d)
	}
	if s := FromSlice(2, 2, d.Data[2:]); s.At(0, 0) != 3 || s.At(1, 1) != 7 {
		t.Fatalf("rows [1,3) as a view: %v", s)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Randn(3, 5, 1, rng)
	if !transpose(transpose(m)).Equal(m, 0) {
		t.Fatal("transpose is not an involution")
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -2, 3, -4})
	if m.MaxAbs() != 4 {
		t.Errorf("MaxAbs: %v", m.MaxAbs())
	}
	if got := m.Norm2(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Errorf("Norm2: %v", got)
	}
	if m.ArgmaxRow(0) != 0 || m.ArgmaxRow(1) != 0 {
		t.Errorf("ArgmaxRow wrong")
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	got := into(2, 3, func(dst *Matrix) { AddRowVectorInto(dst, m, v) })
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !got.Equal(want, 0) {
		t.Fatalf("AddRowVectorInto: %v", got)
	}
}

func TestActivations(t *testing.T) {
	m := FromSlice(1, 3, []float64{-1, 0, 2})
	if got := into(1, 3, func(dst *Matrix) { ReLUInto(dst, m) }); !got.Equal(FromSlice(1, 3, []float64{0, 0, 2}), 0) {
		t.Errorf("ReLUInto: %v", got)
	}
	sg := into(1, 3, func(dst *Matrix) { SigmoidInto(dst, m) })
	if math.Abs(sg.At(0, 1)-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) != 0.5: %v", sg)
	}
	th := into(1, 3, func(dst *Matrix) { TanhInto(dst, m) })
	if math.Abs(th.At(0, 1)) > 1e-12 || th.At(0, 0) >= 0 || th.At(0, 2) <= 0 {
		t.Errorf("Tanh: %v", th)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(2, 2, 1, rand.New(rand.NewSource(7)))
	b := Randn(2, 2, 1, rand.New(rand.NewSource(7)))
	if !a.Equal(b, 0) {
		t.Fatal("Randn not deterministic for fixed seed")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Sizes straddling the parallel threshold must agree exactly (row
	// partitioning is deterministic: each output row has one owner).
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{8, 64, 90} {
		a := Randn(n, n, 1, rng)
		b := Randn(n, n, 1, rng)
		want := New(n, n)
		matMulRows(want, a, b, 0, n) // serial reference
		if got := matMul(a, b); !got.Equal(want, 0) {
			t.Fatalf("parallel MatMul diverges at n=%d", n)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(64, 64, 1, rng)
	y := Randn(64, 64, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(128, 128, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.SoftmaxRows()
	}
}
