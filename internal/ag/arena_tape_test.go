package ag

import (
	"math/rand"
	"testing"

	"webbrief/internal/tensor"
)

// mlpLoss builds a small MLP loss on tp — the shared graph for the
// arena/sink tests below.
func mlpLoss(tp *Tape, w1, w2 *Param, x *tensor.Matrix) *Node {
	h := tp.Tanh(tp.MatMul(tp.Const(x), tp.Use(w1)))
	out := tp.MatMul(h, tp.Use(w2))
	return sumAll(tp, tp.Mul(out, out))
}

// TestArenaTapeMatchesHeapTape runs the same graph on a fresh heap tape and
// on a reused arena tape and demands bitwise-identical loss and gradients —
// the reuse must be invisible to the math.
func TestArenaTapeMatchesHeapTape(t *testing.T) {
	w1 := randParam("w1", 4, 8, 1)
	w2 := randParam("w2", 8, 3, 2)
	x := tensor.Randn(5, 4, 1, rand.New(rand.NewSource(3)))

	arena := NewArenaTape()
	for pass := 0; pass < 3; pass++ {
		w1.ZeroGrad()
		w2.ZeroGrad()
		hp := NewTape()
		lossH := mlpLoss(hp, w1, w2, x)
		hp.Backward(lossH)
		g1 := append([]float64(nil), w1.Grad.Data...)
		g2 := append([]float64(nil), w2.Grad.Data...)

		w1.ZeroGrad()
		w2.ZeroGrad()
		arena.Reset()
		lossA := mlpLoss(arena, w1, w2, x)
		arena.Backward(lossA)

		if lossH.Value.Data[0] != lossA.Value.Data[0] {
			t.Fatalf("pass %d: loss heap %v != arena %v", pass, lossH.Value.Data[0], lossA.Value.Data[0])
		}
		for i := range g1 {
			if g1[i] != w1.Grad.Data[i] {
				t.Fatalf("pass %d: w1 grad[%d] heap %v != arena %v", pass, i, g1[i], w1.Grad.Data[i])
			}
		}
		for i := range g2 {
			if g2[i] != w2.Grad.Data[i] {
				t.Fatalf("pass %d: w2 grad[%d] heap %v != arena %v", pass, i, g2[i], w2.Grad.Data[i])
			}
		}
	}
}

// TestArenaTapeResetClearsState makes sure nothing computed before a Reset
// bleeds into the next pass: two different graphs alternated on one tape
// must each produce the gradients a dedicated fresh tape would.
func TestArenaTapeResetClearsState(t *testing.T) {
	w := randParam("w", 3, 3, 4)
	x1 := tensor.Randn(2, 3, 1, rand.New(rand.NewSource(5)))
	x2 := tensor.Randn(4, 3, 1, rand.New(rand.NewSource(6)))

	ref := func(x *tensor.Matrix) []float64 {
		w.ZeroGrad()
		tp := NewTape()
		tp.Backward(sumAll(tp, tp.Sigmoid(tp.MatMul(tp.Const(x), tp.Use(w)))))
		return append([]float64(nil), w.Grad.Data...)
	}
	want1, want2 := ref(x1), ref(x2)

	arena := NewArenaTape()
	for pass := 0; pass < 4; pass++ {
		x, want := x1, want1
		if pass%2 == 1 {
			x, want = x2, want2
		}
		w.ZeroGrad()
		arena.Reset()
		arena.Backward(sumAll(arena, arena.Sigmoid(arena.MatMul(arena.Const(x), arena.Use(w)))))
		for i := range want {
			if w.Grad.Data[i] != want[i] {
				t.Fatalf("pass %d: grad[%d] = %v, want %v", pass, i, w.Grad.Data[i], want[i])
			}
		}
	}
}

// TestGradSinkRedirectsAndMerges checks the sharded-gradient path: with a
// sink installed, Backward must leave Param.Grad untouched; MergeInto then
// folds the shard in and clears it for reuse.
func TestGradSinkRedirectsAndMerges(t *testing.T) {
	w := randParam("w", 2, 2, 7)
	params := []*Param{w}

	w.ZeroGrad()
	tp := NewTape()
	tp.Backward(sumAll(tp, tp.Mul(tp.Use(w), tp.Use(w))))
	want := append([]float64(nil), w.Grad.Data...)

	w.ZeroGrad()
	sink := NewGradSink()
	st := NewArenaTape()
	st.SetSink(sink)
	st.Backward(sumAll(st, st.Mul(st.Use(w), st.Use(w))))
	for i, g := range w.Grad.Data {
		if g != 0 {
			t.Fatalf("Param.Grad[%d] written despite sink: %v", i, g)
		}
	}
	sink.MergeInto(params)
	for i := range want {
		if w.Grad.Data[i] != want[i] {
			t.Fatalf("merged grad[%d] = %v, want %v", i, w.Grad.Data[i], want[i])
		}
	}
	// The shard must be zeroed by the merge so the next batch starts clean.
	st.Reset()
	st.Backward(sumAll(st, st.Use(w)))
	sink.MergeInto(params)
	for i := range want {
		if got, wantAcc := w.Grad.Data[i], want[i]+1; got != wantAcc {
			t.Fatalf("second merge grad[%d] = %v, want %v (stale shard?)", i, got, wantAcc)
		}
	}
}

// TestGradSinkMergeOrderDeterministic merges two sinks holding different
// shard values in both orders; since merge iterates the params slice and
// each sink adds its shard, the two orders differ only by float
// reassociation — with these power-of-two values they must agree exactly,
// and repeated merges must be reproducible.
func TestGradSinkMergeOrderDeterministic(t *testing.T) {
	w := NewParam("w", tensor.New(1, 2))
	params := []*Param{w}
	mk := func(v float64) *GradSink {
		s := NewGradSink()
		g := s.Grad(w)
		g.Data[0], g.Data[1] = v, 2*v
		return s
	}
	w.ZeroGrad()
	a, b := mk(0.25), mk(0.5)
	a.MergeInto(params)
	b.MergeInto(params)
	first := append([]float64(nil), w.Grad.Data...)

	w.ZeroGrad()
	a, b = mk(0.25), mk(0.5)
	b.MergeInto(params)
	a.MergeInto(params)
	for i := range first {
		if w.Grad.Data[i] != first[i] {
			t.Fatalf("merge not order-stable at [%d]: %v vs %v", i, w.Grad.Data[i], first[i])
		}
	}
}

// TestSetRandControlsDropout seeds the tape rng identically twice and
// demands identical dropout masks — the tape rng must take precedence over
// the argument rng — and a different seed must (at this size) give a
// different mask.
func TestSetRandControlsDropout(t *testing.T) {
	x := tensor.Full(8, 8, 1)
	mask := func(seed int64) []float64 {
		tp := NewArenaTape()
		tp.SetRand(rand.New(rand.NewSource(seed)))
		// The argument rng varies per call; the tape rng must win.
		arg := rand.New(rand.NewSource(seed + 1000))
		out := tp.Dropout(tp.Const(x), 0.5, arg)
		return append([]float64(nil), out.Value.Data...)
	}
	a, b := mask(1), mask(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different dropout masks")
		}
	}
	c := mask(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-cell dropout masks")
	}
}

// BenchmarkBackwardMLPArena is the arena'd counterpart of BenchmarkBackwardMLP:
// the identical graph on a reused tape with sharded grads — the allocs/op
// delta is the point.
func BenchmarkBackwardMLPArena(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w1 := NewParam("w1", tensor.Randn(64, 64, 0.1, rng))
	w2 := NewParam("w2", tensor.Randn(64, 8, 0.1, rng))
	x := tensor.Randn(16, 64, 1, rng)
	targets := make([]int, 16)
	sink := NewGradSink()
	tp := NewArenaTape()
	tp.SetSink(sink)
	params := []*Param{w1, w2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		h := tp.Tanh(tp.MatMul(tp.Const(x), tp.Use(w1)))
		loss := tp.CrossEntropy(tp.MatMul(h, tp.Use(w2)), targets)
		w1.ZeroGrad()
		w2.ZeroGrad()
		tp.Backward(loss)
		sink.MergeInto(params)
	}
}
