package nn

import (
	"math"
	"math/rand"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// layerGradCheck compares analytic parameter gradients of a scalar-loss
// graph against central finite differences, for whole layers rather than
// single ops (the ag package already covers ops; this guards layer
// composition: gate slicing, state threading, residuals, attention heads).
func layerGradCheck(t *testing.T, name string, params []*ag.Param, build func(tp *ag.Tape) *ag.Node) {
	t.Helper()
	forward := func() float64 { return build(ag.NewTape()).Value.Data[0] }
	tp := ag.NewTape()
	loss := build(tp)
	for _, p := range params {
		p.ZeroGrad()
	}
	tp.Backward(loss)
	const h = 1e-6
	for _, p := range params {
		// Sample a handful of coordinates per parameter; full sweeps over
		// transformer weights would dominate the test run for no extra
		// signal.
		stride := len(p.Value.Data)/5 + 1
		for i := 0; i < len(p.Value.Data); i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := forward()
			p.Value.Data[i] = orig - h
			down := forward()
			p.Value.Data[i] = orig
			want := (up - down) / (2 * h)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s: %s grad[%d] = %v, finite-diff %v", name, p.Name, i, got, want)
			}
		}
	}
}

// sumAll reduces a to the 1×1 sum of its entries, 1ᵀ·a·1.
func sumAll(tp *ag.Tape, a *ag.Node) *ag.Node {
	return tp.MatMul(tp.MatMul(tp.Const(tensor.Full(1, a.Value.Rows, 1)), a), tp.Const(tensor.Full(a.Value.Cols, 1, 1)))
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM("l", 3, 4, rng)
	x := tensor.Randn(5, 3, 0.8, rng)
	layerGradCheck(t, "lstm", l.Params(), func(tp *ag.Tape) *ag.Node {
		return sumAll(tp, tp.Tanh(l.Forward(tp, tp.Const(x))))
	})
}

func TestBiLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBiLSTM("b", 3, 3, rng)
	x := tensor.Randn(4, 3, 0.8, rng)
	layerGradCheck(t, "bilstm", b.Params(), func(tp *ag.Tape) *ag.Node {
		return sumAll(tp, b.Forward(tp, tp.Const(x)))
	})
}

func TestTransformerGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := TransformerConfig{Vocab: 12, Dim: 8, Heads: 2, Layers: 1, FFDim: 8, MaxLen: 6}
	tr := NewTransformer("bert", cfg, rng)
	ids := []int{1, 5, 3}
	layerGradCheck(t, "transformer", tr.Params(), func(tp *ag.Tape) *ag.Node {
		return sumAll(tp, tr.Encode(tp, ids, nil))
	})
}

func TestAttnDecoderGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewAttnDecoder("d", 9, 4, 5, 6, rng)
	mem := tensor.Randn(3, 6, 0.8, rng)
	inputs := []int{0, 4, 7}
	targets := []int{4, 7, 1}
	layerGradCheck(t, "decoder", d.Params(), func(tp *ag.Tape) *ag.Node {
		logits := d.ForwardTeacherForcing(tp, tp.Const(mem), inputs)
		return tp.CrossEntropy(logits, targets)
	})
}

func TestLayerNormGradCheck(t *testing.T) {
	ln := NewLayerNorm("ln", 6)
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(3, 6, 1.2, rng)
	w := tensor.Randn(3, 6, 1, rng)
	layerGradCheck(t, "layernorm", ln.Params(), func(tp *ag.Tape) *ag.Node {
		return sumAll(tp, tp.Mul(ln.Forward(tp, tp.Const(x)), tp.Const(w)))
	})
}
