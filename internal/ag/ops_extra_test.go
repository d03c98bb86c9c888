package ag

import (
	"math"
	"math/rand"
	"testing"

	"webbrief/internal/tensor"
)

func TestGradSliceCols(t *testing.T) {
	a := randParam("a", 3, 6, 40)
	checkGrad(t, "slicecols", []*Param{a}, func(tp *Tape) *Node {
		n := tp.Use(a)
		left := tp.SliceCols(n, 0, 3)
		right := tp.SliceCols(n, 3, 6)
		return sumAll(tp, tp.Tanh(tp.Mul(left, right)))
	})
}

func TestGradMulRowVector(t *testing.T) {
	a := randParam("a", 3, 4, 41)
	g := randParam("gain", 1, 4, 42)
	checkGrad(t, "mulrow", []*Param{a, g}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Sigmoid(tp.MulRowVector(tp.Use(a), tp.Use(g))))
	})
}

func TestGradRowNorm(t *testing.T) {
	a := randParam("a", 3, 5, 43)
	w := tensor.Randn(3, 5, 1, rand.New(rand.NewSource(44)))
	checkGrad(t, "rownorm", []*Param{a}, func(tp *Tape) *Node {
		return sumAll(tp, tp.Mul(tp.RowNorm(tp.Use(a), 1e-5), tp.Const(w)))
	})
}

func TestRowNormStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tp := NewTape()
	out := tp.RowNorm(tp.Const(tensor.Randn(4, 16, 3, rng)), 1e-8)
	for i := 0; i < 4; i++ {
		row := out.Value.Row(i)
		var mean, variance float64
		for _, v := range row {
			mean += v
		}
		mean /= 16
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
		variance /= 16
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-4 {
			t.Fatalf("row %d not standardised: mean=%v var=%v", i, mean, variance)
		}
	}
}

func TestGradAddMasked(t *testing.T) {
	a := randParam("a", 2, 3, 46)
	mask := tensor.FromSlice(2, 3, []float64{0, -1e9, 0, 0, 0, -1e9})
	checkGrad(t, "addmasked", []*Param{a}, func(tp *Tape) *Node {
		return sumAll(tp, tp.SoftmaxRows(tp.AddMasked(tp.Use(a), mask)))
	})
}

func TestAddMaskedBlocksAttention(t *testing.T) {
	tp := NewTape()
	logits := tp.Const(tensor.Full(1, 4, 1))
	mask := tensor.FromSlice(1, 4, []float64{0, 0, -1e9, -1e9})
	att := tp.SoftmaxRows(tp.AddMasked(logits, mask))
	if att.Value.Data[2] > 1e-10 || att.Value.Data[3] > 1e-10 {
		t.Fatalf("masked positions should get ~0 attention: %v", att.Value.Data)
	}
	if math.Abs(att.Value.Data[0]-0.5) > 1e-9 {
		t.Fatalf("unmasked mass should split evenly: %v", att.Value.Data)
	}
}

func TestSliceColsOutOfRangePanics(t *testing.T) {
	tp := NewTape()
	n := tp.Const(tensor.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp.SliceCols(n, 2, 5)
}
