package opt

import (
	"math"
	"math/rand"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// sumAll reduces a to the 1×1 sum of its entries, 1ᵀ·a·1.
func sumAll(tp *ag.Tape, a *ag.Node) *ag.Node {
	return tp.MatMul(tp.MatMul(tp.Const(tensor.Full(1, a.Value.Rows, 1)), a), tp.Const(tensor.Full(a.Value.Cols, 1, 1)))
}

// quadratic is the mean of (x − target)² on tp.
func quadratic(tp *ag.Tape, x *ag.Param, target *tensor.Matrix) *ag.Node {
	d := tp.Add(tp.Use(x), tp.Scale(tp.Const(target), -1))
	return tp.Scale(sumAll(tp, tp.Mul(d, d)), 1/float64(len(target.Data)))
}

// trainQuadratic minimises ||x - target||² and returns the final distance.
func trainQuadratic(t *testing.T, optim Optimizer, x *ag.Param, target *tensor.Matrix, steps int) float64 {
	t.Helper()
	for i := 0; i < steps; i++ {
		tp := ag.NewTape()
		tp.Backward(quadratic(tp, x, target))
		optim.Step()
	}
	return x.Value.Clone().AddScaledInPlace(target, -1).Norm2()
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := ag.NewParam("x", tensor.Randn(3, 3, 1, rng))
	target := tensor.Randn(3, 3, 1, rng)
	a := NewAdam([]*ag.Param{x}, 0.05)
	if dist := trainQuadratic(t, a, x, target, 500); dist > 1e-3 {
		t.Fatalf("Adam failed to converge, dist=%v", dist)
	}
	if a.step != 500 {
		t.Fatalf("step count: %d", a.step)
	}
}

func TestStepZeroesGrads(t *testing.T) {
	x := ag.NewParam("x", tensor.Full(2, 2, 1))
	a := NewAdam([]*ag.Param{x}, 0.01)
	tp := ag.NewTape()
	tp.Backward(sumAll(tp, tp.Use(x)))
	if globalGradNorm(a.Params) == 0 {
		t.Fatal("expected nonzero grad before step")
	}
	a.Step()
	if globalGradNorm(a.Params) != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestClipGradNorm(t *testing.T) {
	x := ag.NewParam("x", tensor.New(1, 4))
	copy(x.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	pre := clipGradNorm([]*ag.Param{x}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm: %v", pre)
	}
	if got := globalGradNorm([]*ag.Param{x}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("post-clip norm: %v", got)
	}
	// Direction preserved.
	if math.Abs(x.Grad.Data[0]/x.Grad.Data[1]-0.75) > 1e-9 {
		t.Fatalf("clip changed direction: %v", x.Grad.Data)
	}
}

func TestClipNoopWhenUnderLimit(t *testing.T) {
	x := ag.NewParam("x", tensor.New(1, 2))
	copy(x.Grad.Data, []float64{0.1, 0.1})
	clipGradNorm([]*ag.Param{x}, 10)
	if x.Grad.Data[0] != 0.1 {
		t.Fatal("clip should not rescale small gradients")
	}
}

func TestWarmupDecaySchedule(t *testing.T) {
	s := WarmupDecay{WarmupSteps: 10, DecayRate: 0.1, DecayEvery: 100}
	if got := s.Factor(0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("step 0: %v", got)
	}
	if got := s.Factor(9); math.Abs(got-1) > 1e-12 {
		t.Errorf("step 9: %v", got)
	}
	if got := s.Factor(10); got != 1 {
		t.Errorf("post-warmup: %v", got)
	}
	if got := s.Factor(110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("after one decay: %v", got)
	}
	if got := s.Factor(210); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("after two decays: %v", got)
	}
}

func TestWarmupDecayMonotoneDuringWarmup(t *testing.T) {
	s := WarmupDecay{WarmupSteps: 50}
	prev := 0.0
	for i := 0; i < 50; i++ {
		f := s.Factor(i)
		if f <= prev {
			t.Fatalf("warmup not strictly increasing at %d: %v <= %v", i, f, prev)
		}
		prev = f
	}
}

func TestConstantSchedule(t *testing.T) {
	var c ConstantSchedule
	for _, step := range []int{0, 1, 1000} {
		if c.Factor(step) != 1 {
			t.Fatal("constant schedule must be 1")
		}
	}
}

func TestAdamDeterministic(t *testing.T) {
	run := func() []float64 {
		x := ag.NewParam("x", tensor.Full(2, 2, 1))
		target := tensor.Full(2, 2, 3)
		a := NewAdam([]*ag.Param{x}, 0.1)
		for i := 0; i < 20; i++ {
			tp := ag.NewTape()
			tp.Backward(quadratic(tp, x, target))
			a.Step()
		}
		return append([]float64(nil), x.Value.Data...)
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("Adam updates are not deterministic")
		}
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	params := []*ag.Param{
		ag.NewParam("w", tensor.Randn(128, 128, 0.1, rng)),
		ag.NewParam("b", tensor.Randn(1, 128, 0.1, rng)),
	}
	a := NewAdam(params, 1e-3)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}
