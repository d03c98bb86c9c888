package ag

import (
	"math/rand"
	"testing"

	"webbrief/internal/tensor"
)

// gradcheck_test drives GradCheck over every op in ops_extra.go and every
// ag op whose forward runs through a destination-passing kernel in
// tensor/into.go, validating analytic against numeric gradients to 1e-4
// relative error (the PR-1 equivalence tests only compared Workers values,
// not analytic-vs-numeric).

const (
	gcEps = 1e-5
	gcTol = 1e-4
)

// gcParam builds a named parameter with N(0, std²) entries. Entries near
// zero are nudged away so kink-bearing ops (ReLU, L1) and central
// differences never straddle a nondifferentiable point.
func gcParam(name string, rows, cols int, seed int64) *Param {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.Randn(rows, cols, 0.8, rng)
	for i, v := range m.Data {
		if v > -0.05 && v < 0.05 {
			if v < 0 {
				m.Data[i] = v - 0.1
			} else {
				m.Data[i] = v + 0.1
			}
		}
	}
	return NewParam(name, m)
}

// weightedSum reduces y to a scalar against fixed weights so every output
// element contributes a distinct gradient path (a plain Mean would give
// RowNorm an identically-zero gradient and hide backward bugs).
func weightedSum(tp *Tape, y *Node, seed int64) *Node {
	w := tensor.Randn(y.Value.Rows, y.Value.Cols, 1, rand.New(rand.NewSource(seed)))
	return sumAll(tp, tp.Mul(y, tp.Const(w)))
}

func runGradCheck(t *testing.T, params []*Param, build func(tp *Tape) *Node) {
	t.Helper()
	if err := GradCheck(params, build, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

// --- ops_extra.go ----------------------------------------------------------

func TestGradCheckSliceCols(t *testing.T) {
	a := gcParam("a", 3, 5, 1)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.SliceCols(tp.Use(a), 1, 4), 100)
	})
}

func TestGradCheckMulRowVector(t *testing.T) {
	a := gcParam("a", 3, 4, 2)
	v := gcParam("v", 1, 4, 3)
	runGradCheck(t, []*Param{a, v}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.MulRowVector(tp.Use(a), tp.Use(v)), 101)
	})
}

func TestGradCheckRowNorm(t *testing.T) {
	a := gcParam("a", 3, 6, 4)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.RowNorm(tp.Use(a), 1e-5), 102)
	})
}

func TestGradCheckL1Between(t *testing.T) {
	a := gcParam("a", 2, 3, 5)
	b := gcParam("b", 2, 3, 6)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return tp.L1Between(tp.Use(a), tp.Use(b))
	})
}

func TestGradCheckAddMasked(t *testing.T) {
	a := gcParam("a", 2, 4, 7)
	// Modest mask values: the op's gradient is mask-independent, and huge
	// offsets would destroy the precision of the finite differences.
	mask := tensor.FromSlice(2, 4, []float64{0, -2.5, 0, 0, -2.5, 0, 0, -2.5})
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.AddMasked(tp.Use(a), mask), 103)
	})
}

// --- ops backed by tensor/into.go destination-passing kernels ---------------

func TestGradCheckAdd(t *testing.T) {
	a := gcParam("a", 3, 3, 10)
	b := gcParam("b", 3, 3, 11)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.Add(tp.Use(a), tp.Use(b)), 110)
	})
}

func TestGradCheckMul(t *testing.T) {
	a := gcParam("a", 3, 3, 14)
	b := gcParam("b", 3, 3, 15)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.Mul(tp.Use(a), tp.Use(b)), 112)
	})
}

func TestGradCheckScale(t *testing.T) {
	a := gcParam("a", 2, 4, 16)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.Scale(tp.Use(a), -1.7), 113)
	})
}

func TestGradCheckMatMul(t *testing.T) {
	a := gcParam("a", 3, 4, 17)
	b := gcParam("b", 4, 2, 18)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.MatMul(tp.Use(a), tp.Use(b)), 114)
	})
}

func TestGradCheckMatMulTransB(t *testing.T) {
	a := gcParam("a", 3, 4, 19)
	b := gcParam("b", 2, 4, 20)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.MatMulTransB(tp.Use(a), tp.Use(b)), 115)
	})
}

func TestGradCheckAddRowVector(t *testing.T) {
	a := gcParam("a", 3, 4, 21)
	v := gcParam("v", 1, 4, 22)
	runGradCheck(t, []*Param{a, v}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.AddRowVector(tp.Use(a), tp.Use(v)), 116)
	})
}

func TestGradCheckTanh(t *testing.T) {
	a := gcParam("a", 2, 5, 23)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.Tanh(tp.Use(a)), 117)
	})
}

func TestGradCheckSigmoid(t *testing.T) {
	a := gcParam("a", 2, 5, 24)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.Sigmoid(tp.Use(a)), 118)
	})
}

func TestGradCheckReLU(t *testing.T) {
	a := gcParam("a", 2, 5, 25) // entries nudged away from the kink at 0
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.ReLU(tp.Use(a)), 119)
	})
}

func TestGradCheckSoftmaxRows(t *testing.T) {
	a := gcParam("a", 3, 4, 26)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.SoftmaxRows(tp.Use(a)), 120)
	})
}

func TestGradCheckLogSoftmaxRows(t *testing.T) {
	a := gcParam("a", 3, 4, 27)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.LogSoftmaxRows(tp.Use(a)), 121)
	})
}

func TestGradCheckConcatCols(t *testing.T) {
	a := gcParam("a", 3, 2, 28)
	b := gcParam("b", 3, 4, 29)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.ConcatCols(tp.Use(a), tp.Use(b)), 122)
	})
}

func TestGradCheckConcatRows(t *testing.T) {
	a := gcParam("a", 2, 3, 30)
	b := gcParam("b", 4, 3, 31)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.ConcatRows(tp.Use(a), tp.Use(b)), 123)
	})
}

func TestGradCheckTranspose(t *testing.T) {
	a := gcParam("a", 3, 5, 32)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.Transpose(tp.Use(a)), 124)
	})
}

// --- remaining tape ops with kernel-backed forwards or masked losses --------

func TestGradCheckGatherRows(t *testing.T) {
	a := gcParam("a", 4, 3, 33)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.GatherRows(tp.Use(a), []int{2, 0, 2, 3}), 125)
	})
}

func TestGradCheckSeededDropout(t *testing.T) {
	// With the tape rng re-seeded per forward — the engine's per-example
	// convention — dropout is a fixed mask and its gradient must check out.
	a := gcParam("a", 3, 4, 34)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		tp.SetRand(rand.New(rand.NewSource(7)))
		return weightedSum(tp, tp.Dropout(tp.Use(a), 0.4, nil), 126)
	})
}

func TestGradCheckCrossEntropy(t *testing.T) {
	logits := gcParam("logits", 4, 3, 35)
	targets := []int{2, 0, -1, 1} // includes a padding row
	runGradCheck(t, []*Param{logits}, func(tp *Tape) *Node {
		return tp.CrossEntropy(tp.Use(logits), targets)
	})
}

func TestGradCheckBCELoss(t *testing.T) {
	logits := gcParam("logits", 4, 1, 36)
	labels := []int{1, 0, -1, 1} // includes a padding entry
	runGradCheck(t, []*Param{logits}, func(tp *Tape) *Node {
		return tp.BCELoss(tp.Use(logits), labels)
	})
}

func TestGradCheckKLDiv(t *testing.T) {
	logits := gcParam("logits", 3, 4, 37)
	teacher := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(38))).SoftmaxRows()
	runGradCheck(t, []*Param{logits}, func(tp *Tape) *Node {
		return tp.KLDiv(teacher, tp.Use(logits))
	})
}

func TestGradCheckMeanRows(t *testing.T) {
	a := gcParam("a", 4, 3, 43)
	runGradCheck(t, []*Param{a}, func(tp *Tape) *Node {
		return weightedSum(tp, tp.MeanRows(tp.Use(a)), 127)
	})
}

func TestGradCheckAddScalars(t *testing.T) {
	a := gcParam("a", 2, 2, 44)
	b := gcParam("b", 3, 3, 45)
	runGradCheck(t, []*Param{a, b}, func(tp *Tape) *Node {
		return tp.AddScalars(tp.Scale(sumAll(tp, tp.Use(a)), 0.25), sumAll(tp, tp.Use(b)))
	})
}

// TestGradCheckCatchesWrongGradient guards the harness itself: a loss whose
// backward is deliberately broken must fail the check.
func TestGradCheckCatchesWrongGradient(t *testing.T) {
	a := gcParam("a", 2, 2, 46)
	err := GradCheck([]*Param{a}, func(tp *Tape) *Node {
		x := tp.Use(a)
		// Forward computes sum(x²) but the recorded graph is sum(x): the
		// analytic gradient (1) disagrees with the numeric one (2x).
		var forward float64
		for _, v := range a.Value.Data {
			forward += v * v
		}
		n := tp.scalar(forward)
		n.back = func() {
			g := x.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[0]
			}
		}
		return n
	}, gcEps, gcTol)
	if err == nil {
		t.Fatal("GradCheck accepted a broken backward closure")
	}
}
