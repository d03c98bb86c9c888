package ag

import (
	"math/rand"
	"testing"

	"webbrief/internal/tensor"
)

// inferForward runs a representative op mix (the briefing model's diet) on
// tape t and returns the final scalar.
func inferForward[T tensor.Float](t *TapeOf[T], w *ParamOf[T], x *tensor.MatrixOf[T]) T {
	xn := t.Const(x)
	h := t.Tanh(t.MatMul(xn, t.Use(w)))
	h = t.ConcatCols2(h, t.Sigmoid(h))
	h = t.SliceCols(h, 0, w.Value.Cols)
	h = t.AddRowVector(h, t.MeanRows(h))
	return sumAll(t, t.SoftmaxRows(h)).Value.Data[0]
}

// TestInferTapeMatchesGradTape checks nograd mode changes no forward value.
func TestInferTapeMatchesGradTape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewParam("w", tensor.Randn(6, 6, 1, rng))
	x := tensor.Randn(3, 6, 1, rng)
	want := inferForward(NewTape(), w, x)
	it := NewInferTapeOf[float64]()
	if got := inferForward(it, w, x); got != want {
		t.Fatalf("infer tape forward = %v, grad tape = %v", got, want)
	}
	it.Reset()
	if got := inferForward(it, w, x); got != want {
		t.Fatalf("reused infer tape forward = %v, want %v", got, want)
	}
}

// TestInferTapeAllocationFree is the kernel-level allocation gate, for both
// element types: a warm no-gradient tape must run forwards without touching
// the heap (no backward closures, arena-backed values, no boxing in the
// kernel type switches).
func TestInferTapeAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := NewParam("w", tensor.Randn(6, 6, 1, rng))
	x := tensor.Randn(3, 6, 1, rng)
	t.Run("f64", func(t *testing.T) { checkInferTapeAllocationFree(t, w, x) })
	t.Run("f32", func(t *testing.T) { checkInferTapeAllocationFree(t, CastParam[float32](w), tensor.Cast[float32](x)) })
}

func checkInferTapeAllocationFree[T tensor.Float](t *testing.T, w *ParamOf[T], x *tensor.MatrixOf[T]) {
	it := NewInferTapeOf[T]()
	inferForward(it, w, x) // warm the arena and node blocks
	allocs := testing.AllocsPerRun(20, func() {
		it.Reset()
		inferForward(it, w, x)
	})
	if allocs > 0 {
		t.Fatalf("warm infer tape allocates %v per forward, want 0", allocs)
	}
}

// TestInferTapeBackwardPanics pins the misuse guard.
func TestInferTapeBackwardPanics(t *testing.T) {
	it := NewInferTapeOf[float64]()
	n := sumAll(it, it.Const(tensor.Full(2, 2, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on an infer tape must panic")
		}
	}()
	it.Backward(n)
}
