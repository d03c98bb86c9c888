package ag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"webbrief/internal/tensor"
)

// numGrad computes the finite-difference gradient of f with respect to p.
func numGrad(p *Param, f func() float64) *tensor.Matrix {
	const h = 1e-6
	g := tensor.New(p.Value.Rows, p.Value.Cols)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		up := f()
		p.Value.Data[i] = orig - h
		down := f()
		p.Value.Data[i] = orig
		g.Data[i] = (up - down) / (2 * h)
	}
	return g
}

// checkGrad builds the graph via build (returning the scalar loss), runs
// Backward, and compares the analytic parameter gradients to finite
// differences.
func checkGrad(t *testing.T, name string, params []*Param, build func(tp *Tape) *Node) {
	t.Helper()
	forward := func() float64 {
		tp := NewTape()
		return build(tp).Value.Data[0]
	}
	tp := NewTape()
	loss := build(tp)
	for _, p := range params {
		p.ZeroGrad()
	}
	tp.Backward(loss)
	for _, p := range params {
		want := numGrad(p, forward)
		for i := range want.Data {
			diff := math.Abs(p.Grad.Data[i] - want.Data[i])
			scale := math.Max(1, math.Abs(want.Data[i]))
			if diff/scale > 1e-4 {
				t.Fatalf("%s: param %s grad[%d] = %v, finite-diff %v", name, p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
}

// sumAll reduces a to the 1×1 sum of its entries, 1ᵀ·a·1: the scalar most
// tests here differentiate. The ones come from the tape, so a warm arena
// tape still allocates nothing.
func sumAll[T tensor.Float](t *TapeOf[T], a *NodeOf[T]) *NodeOf[T] {
	return t.MatMul(t.MatMul(onesOn(t, 1, a.Value.Rows), a), onesOn(t, a.Value.Cols, 1))
}

func onesOn[T tensor.Float](t *TapeOf[T], rows, cols int) *NodeOf[T] {
	m := t.AllocValueUninit(rows, cols)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return t.Const(m)
}

func randParam(name string, rows, cols int, seed int64) *Param {
	return NewParam(name, tensor.Randn(rows, cols, 0.5, rand.New(rand.NewSource(seed))))
}

func TestGradMatMulChain(t *testing.T) {
	a := randParam("a", 3, 4, 1)
	b := randParam("b", 4, 2, 2)
	checkGrad(t, "matmul-tanh-sum", []*Param{a, b}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Tanh(tp.MatMul(tp.Use(a), tp.Use(b))))
	})
}

func TestGradMatMulTransB(t *testing.T) {
	a := randParam("a", 3, 4, 3)
	b := randParam("b", 5, 4, 4)
	checkGrad(t, "matmultransb", []*Param{a, b}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Sigmoid(tp.MatMulTransB(tp.Use(a), tp.Use(b))))
	})
}

func TestGradElementwise(t *testing.T) {
	a := randParam("a", 2, 3, 5)
	b := randParam("b", 2, 3, 6)
	checkGrad(t, "add-mul-relu", []*Param{a, b}, func(tp *Tape) *Node {
		na, nb := tp.Use(a), tp.Use(b)
		return sumAll(tp, tp.ReLU(tp.Add(tp.Mul(na, nb), tp.Add(na, tp.Scale(nb, -1)))))
	})
}

func TestGradScale(t *testing.T) {
	a := randParam("a", 2, 2, 7)
	checkGrad(t, "scale", []*Param{a}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Scale(tp.Use(a), 3.5))
	})
}

func TestGradSoftmax(t *testing.T) {
	a := randParam("a", 3, 4, 8)
	w := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(9)))
	checkGrad(t, "softmax-weighted", []*Param{a}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Mul(tp.SoftmaxRows(tp.Use(a)), tp.Const(w)))
	})
}

func TestGradLogSoftmax(t *testing.T) {
	a := randParam("a", 2, 5, 10)
	w := tensor.Randn(2, 5, 1, rand.New(rand.NewSource(11)))
	checkGrad(t, "logsoftmax-weighted", []*Param{a}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Mul(tp.LogSoftmaxRows(tp.Use(a)), tp.Const(w)))
	})
}

func TestGradConcatSlice(t *testing.T) {
	a := randParam("a", 2, 3, 12)
	b := randParam("b", 2, 2, 13)
	checkGrad(t, "concat-slice", []*Param{a, b}, func(tp *Tape) *Node {
		cc := tp.ConcatCols(tp.Use(a), tp.Use(b))
		rr := tp.ConcatRows(cc, cc)
		return sumAll(tp, tp.Tanh(tp.SliceRows(rr, 1, 3)))
	})
}

func TestGradGatherRows(t *testing.T) {
	emb := randParam("emb", 6, 3, 14)
	checkGrad(t, "gather", []*Param{emb}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Tanh(tp.Lookup(tp.Use(emb), []int{0, 2, 2, 5})))
	})
}

func TestGradAddRowVector(t *testing.T) {
	a := randParam("a", 3, 4, 15)
	bias := randParam("bias", 1, 4, 16)
	checkGrad(t, "addrow", []*Param{a, bias}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Sigmoid(tp.AddRowVector(tp.Use(a), tp.Use(bias))))
	})
}

func TestGradCrossEntropy(t *testing.T) {
	a := randParam("a", 4, 5, 17)
	targets := []int{1, -1, 0, 4} // includes a masked row
	checkGrad(t, "xent", []*Param{a}, func(tp *Tape) *Node {
		return tp.CrossEntropy(tp.Use(a), targets)
	})
}

func TestGradKLDiv(t *testing.T) {
	a := randParam("a", 3, 4, 18)
	teacher := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(19))).SoftmaxRows()
	checkGrad(t, "kldiv", []*Param{a}, func(tp *Tape) *Node {
		return tp.KLDiv(teacher, tp.Use(a))
	})
}

func TestGradL1(t *testing.T) {
	a := randParam("a", 2, 3, 20)
	target := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(21)))
	checkGrad(t, "l1", []*Param{a}, func(tp *Tape) *Node {
		return tp.L1Between(tp.Tanh(tp.Use(a)), tp.Const(target))
	})
}

func TestGradBCE(t *testing.T) {
	a := randParam("a", 4, 1, 24)
	labels := []int{1, 0, -1, 1}
	checkGrad(t, "bce", []*Param{a}, func(tp *Tape) *Node {
		return tp.BCELoss(tp.Use(a), labels)
	})
}

func TestGradMeanRows(t *testing.T) {
	a := randParam("a", 4, 3, 25)
	checkGrad(t, "meanrows", []*Param{a}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Tanh(tp.MeanRows(tp.Use(a))))
	})
}

func TestGradAddScalars(t *testing.T) {
	a := randParam("a", 2, 2, 27)
	b := randParam("b", 2, 2, 28)
	checkGrad(t, "addscalars", []*Param{a, b}, func(tp *Tape) *Node {
		return tp.AddScalars(sumAll(tp, tp.Use(a)), tp.Scale(sumAll(tp, tp.Use(b)), 0.5))
	})
}

// Property test: for random small graphs mixing several ops, analytic and
// numeric gradients agree. This is the single most important invariant in
// the repository — every model's training depends on it.
func TestGradRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+r.Intn(3), 1+r.Intn(3), 1+r.Intn(3)
		a := NewParam("a", tensor.Randn(rows, inner, 0.7, r))
		b := NewParam("b", tensor.Randn(inner, cols, 0.7, r))
		build := func(tp *Tape) *Node {
			h := tp.Tanh(tp.MatMul(tp.Use(a), tp.Use(b)))
			s := tp.SoftmaxRows(h)
			return sumAll(tp, tp.Mul(s, h))
		}
		forward := func() float64 { return build(NewTape()).Value.Data[0] }
		tp := NewTape()
		loss := build(tp)
		a.ZeroGrad()
		b.ZeroGrad()
		tp.Backward(loss)
		for _, p := range []*Param{a, b} {
			want := numGrad(p, forward)
			for i := range want.Data {
				if math.Abs(p.Grad.Data[i]-want.Data[i]) > 1e-4*math.Max(1, math.Abs(want.Data[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := NewParam("a", tensor.Full(10, 10, 1))
	tp := NewTape()
	out := tp.Dropout(tp.Use(a), 0.5, rng)
	// Inverted dropout preserves the expectation: surviving entries are 2.
	zeros, twos := 0, 0
	for _, v := range out.Value.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatal("dropout mask degenerate")
	}
	// p <= 0 must be the identity node.
	tp2 := NewTape()
	in := tp2.Use(a)
	if tp2.Dropout(in, 0, rng) != in {
		t.Fatal("Dropout(0) should be identity")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	n := tp.Const(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar should panic")
		}
	}()
	tp.Backward(n)
}

func TestParamGradAccumulatesAcrossTapes(t *testing.T) {
	a := NewParam("a", tensor.Full(1, 1, 2))
	for i := 0; i < 3; i++ {
		tp := NewTape()
		loss := sumAll(tp, tp.Mul(tp.Use(a), tp.Use(a))) // d/da a² = 2a = 4
		tp.Backward(loss)
	}
	if math.Abs(a.Grad.Data[0]-12) > 1e-12 {
		t.Fatalf("grad should accumulate to 12, got %v", a.Grad.Data[0])
	}
	a.ZeroGrad()
	if a.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestCrossEntropyAllMaskedIsZero(t *testing.T) {
	tp := NewTape()
	logits := tp.Const(tensor.Randn(2, 3, 1, rand.New(rand.NewSource(31))))
	loss := tp.CrossEntropy(logits, []int{-1, -1})
	if loss.Value.Data[0] != 0 {
		t.Fatalf("fully masked loss should be 0, got %v", loss.Value.Data[0])
	}
}

func BenchmarkBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w1 := NewParam("w1", tensor.Randn(64, 64, 0.1, rng))
	w2 := NewParam("w2", tensor.Randn(64, 8, 0.1, rng))
	x := tensor.Randn(16, 64, 1, rng)
	targets := make([]int, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		h := tp.Tanh(tp.MatMul(tp.Const(x), tp.Use(w1)))
		loss := tp.CrossEntropy(tp.MatMul(h, tp.Use(w2)), targets)
		w1.ZeroGrad()
		w2.ZeroGrad()
		tp.Backward(loss)
	}
}
