package nn

import (
	"math"
	"math/rand"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/opt"
	"webbrief/internal/tensor"
)

func TestLinearShapesAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 4, 3, rng)
	tp := ag.NewTape()
	out := l.Forward(tp, tp.Const(tensor.Randn(5, 4, 1, rng)))
	if out.Rows() != 5 || out.Cols() != 3 {
		t.Fatalf("shape %dx%d", out.Rows(), out.Cols())
	}
	// Zero input must produce the bias in every row.
	l.B.Value.Data[0] = 7
	tp2 := ag.NewTape()
	out2 := l.Forward(tp2, tp2.Const(tensor.New(2, 4)))
	if out2.Value.At(0, 0) != 7 || out2.Value.At(1, 0) != 7 {
		t.Fatal("bias not applied")
	}
}

func TestEmbeddingLookupAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding("e", 10, 4, rng)
	tp := ag.NewTape()
	out := e.Forward(tp, []int{3, 3, 9})
	if out.Rows() != 3 || out.Cols() != 4 {
		t.Fatal("shape")
	}
	for j := 0; j < 4; j++ {
		if out.Value.At(0, j) != out.Value.At(1, j) {
			t.Fatal("same id must give same vector")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range id should panic")
		}
	}()
	e.Forward(tp, []int{10})
}

func TestLayerNormOutput(t *testing.T) {
	ln := NewLayerNorm("ln", 8)
	tp := ag.NewTape()
	rng := rand.New(rand.NewSource(3))
	out := ln.Forward(tp, tp.Const(tensor.Randn(3, 8, 5, rng)))
	for i := 0; i < 3; i++ {
		var mean float64
		for _, v := range out.Value.Row(i) {
			mean += v
		}
		mean /= 8
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %v (unit gain, zero bias)", i, mean)
		}
	}
}

func TestBilinearAttentionRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bl := NewBilinear("b", 4, 6, rng)
	tp := ag.NewTape()
	a := tp.Const(tensor.Randn(3, 4, 1, rng))
	b := tp.Const(tensor.Randn(5, 6, 1, rng))
	att := bl.Attention(tp, a, b)
	if att.Rows() != 3 || att.Cols() != 5 {
		t.Fatalf("attention shape %dx%d", att.Rows(), att.Cols())
	}
	for i := 0; i < 3; i++ {
		var s float64
		for _, v := range att.Value.Row(i) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestLSTMShapesAndStatefulness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM("l", 3, 5, rng)
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(7, 3, 1, rng))
	h := l.Forward(tp, x)
	if h.Rows() != 7 || h.Cols() != 5 {
		t.Fatalf("shape %dx%d", h.Rows(), h.Cols())
	}
	// The LSTM is stateful: feeding the same input twice in a row must give
	// different hidden states (state carries over).
	tp2 := ag.NewTape()
	same := tensor.Full(2, 3, 0.5)
	h2 := l.Forward(tp2, tp2.Const(same))
	diff := 0.0
	for j := 0; j < 5; j++ {
		diff += math.Abs(h2.Value.At(0, j) - h2.Value.At(1, j))
	}
	if diff < 1e-9 {
		t.Fatal("LSTM appears stateless")
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM("l", 2, 3, rng)
	for j := 0; j < 12; j++ {
		want := 0.0
		if j >= 3 && j < 6 {
			want = 1.0
		}
		if l.B.Value.Data[j] != want {
			t.Fatalf("bias[%d] = %v, want %v", j, l.B.Value.Data[j], want)
		}
	}
}

func TestBiLSTMUsesBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBiLSTM("b", 3, 4, rng)
	tp := ag.NewTape()
	// An impulse at the last timestep must influence the backward half of
	// the FIRST output row (information flows right-to-left).
	x := tensor.New(5, 3)
	x.Set(4, 0, 10)
	h1 := b.Forward(tp, tp.Const(x))
	tp2 := ag.NewTape()
	h2 := b.Forward(tp2, tp2.Const(tensor.New(5, 3)))
	bwdChanged := false
	for j := 4; j < 8; j++ {
		if math.Abs(h1.Value.At(0, j)-h2.Value.At(0, j)) > 1e-9 {
			bwdChanged = true
		}
	}
	if !bwdChanged {
		t.Fatal("backward direction does not propagate future context")
	}
	// The forward half of the first row must NOT see the future.
	for j := 0; j < 4; j++ {
		if math.Abs(h1.Value.At(0, j)-h2.Value.At(0, j)) > 1e-9 {
			t.Fatal("forward direction leaked future context")
		}
	}
}

func TestLSTMGradientsFlowToAllParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM("l", 2, 3, rng)
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(4, 2, 1, rng))
	loss := sumAll(tp, l.Forward(tp, x))
	tp.Backward(loss)
	for _, p := range l.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("no gradient reached %s", p.Name)
		}
	}
}

// An LSTM must be able to learn a tiny sequence task: output class = first
// token of the sequence (tests long-range memory + the whole training loop).
func TestLSTMLearnsFirstTokenTask(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	emb := NewEmbedding("emb", 4, 8, rng)
	l := NewLSTM("l", 8, 8, rng)
	out := NewLinear("out", 8, 2, rng)
	params := CollectParams(emb, l, out)
	optim := opt.NewAdam(params, 0.02)
	seqs := [][]int{{0, 2, 3, 2}, {1, 2, 3, 2}, {0, 3, 3, 3}, {1, 3, 2, 2}}
	labels := []int{0, 1, 0, 1}
	var loss float64
	for epoch := 0; epoch < 150; epoch++ {
		loss = 0
		for i, s := range seqs {
			tp := ag.NewTape()
			h := l.Forward(tp, emb.Forward(tp, s))
			last := tp.SliceRows(h, len(s)-1, len(s))
			lo := tp.CrossEntropy(out.Forward(tp, last), []int{labels[i]})
			loss += lo.Value.Data[0]
			tp.Backward(lo)
			optim.Step()
		}
	}
	if loss > 0.1 {
		t.Fatalf("LSTM failed to fit first-token task, loss=%v", loss)
	}
}

func TestAttnDecoderTeacherForcingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewAttnDecoder("d", 12, 6, 8, 10, rng)
	tp := ag.NewTape()
	mem := tp.Const(tensor.Randn(5, 10, 1, rng))
	logits := d.ForwardTeacherForcing(tp, mem, []int{0, 3, 4})
	if logits.Rows() != 3 || logits.Cols() != 12 {
		t.Fatalf("logits shape %dx%d", logits.Rows(), logits.Cols())
	}
}

func TestAttnDecoderGreedyStopsAtEOS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewAttnDecoder("d", 8, 4, 6, 6, rng)
	tp := ag.NewTape()
	mem := tp.Const(tensor.Randn(3, 6, 1, rng))
	out, _ := d.Greedy(tp, mem, 0, 1, 10)
	if len(out) > 10 {
		t.Fatal("exceeded maxLen")
	}
	for _, tok := range out {
		if tok == 1 {
			t.Fatal("EOS leaked into output")
		}
	}
}

// TestConfidenceScore pins the routing scalar: min(Posterior, 1−e^−Margin)
// clamped to [0, 1], and 0 — escalate — whenever a field is NaN, since a NaN
// score would answer false to every `score < threshold` test.
func TestConfidenceScore(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		c    Confidence
		want float64
	}{
		{sureConfidence(), 1},
		{Confidence{Margin: inf, Posterior: 0.25}, 0.25},
		{Confidence{Margin: 0, Posterior: 1}, 0},
		{Confidence{Margin: math.Ln2, Posterior: 0.9}, 0.5},
		{Confidence{Margin: -1, Posterior: 1}, 0},
		{Confidence{Margin: inf, Posterior: 1.5}, 1},
		{Confidence{Margin: nan, Posterior: 1}, 0},
		{Confidence{Margin: inf, Posterior: nan}, 0},
		{Confidence{Margin: nan, Posterior: nan}, 0},
		{Confidence{}, 0},
	} {
		if got := tc.c.Score(); got != tc.want {
			t.Errorf("%+v.Score() = %v, want %v", tc.c, got, tc.want)
		}
	}
}

// Train a decoder to emit a fixed phrase, then check both greedy and beam
// search recover it and that beam search never underperforms greedy.
func TestDecoderLearnsFixedPhrase(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const bos, eos = 0, 1
	target := []int{5, 3, 7} // the "topic phrase"
	d := NewAttnDecoder("d", 10, 8, 12, 6, rng)
	optim := opt.NewAdam(d.Params(), 0.02)
	memVal := tensor.Randn(4, 6, 1, rng)
	inputs := append([]int{bos}, target...)
	targets := append(append([]int(nil), target...), eos)
	for i := 0; i < 200; i++ {
		tp := ag.NewTape()
		logits := d.ForwardTeacherForcing(tp, tp.Const(memVal), inputs)
		loss := tp.CrossEntropy(logits, targets)
		tp.Backward(loss)
		optim.Step()
	}
	tp := ag.NewTape()
	greedy, _ := d.Greedy(tp, tp.Const(memVal), bos, eos, 6)
	if !equalInts(greedy, target) {
		t.Fatalf("greedy decode %v, want %v", greedy, target)
	}
	beamOut := d.BeamSearch(tp, tp.Const(memVal), bos, eos, 4, 6)
	if !equalInts(beamOut, target) {
		t.Fatalf("beam decode %v, want %v", beamOut, target)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTopK(t *testing.T) {
	xs := []float64{0.1, 0.9, 0.5, 0.7}
	got := topK(xs, 2)
	if !equalInts(got, []int{1, 3}) {
		t.Fatalf("topK: %v", got)
	}
	if got := topK(xs, 10); len(got) != 4 {
		t.Fatalf("topK over-length: %v", got)
	}
}

func TestTransformerConfigValidate(t *testing.T) {
	bad := TransformerConfig{Vocab: 10, Dim: 7, Heads: 2, Layers: 1, FFDim: 8, MaxLen: 16}
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible Dim/Heads must fail")
	}
	good := TransformerConfig{Vocab: 10, Dim: 8, Heads: 2, Layers: 1, FFDim: 8, MaxLen: 16}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransformerEncodeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := TransformerConfig{Vocab: 20, Dim: 8, Heads: 2, Layers: 2, FFDim: 16, MaxLen: 10, Segments: 2}
	tr := NewTransformer("bert", cfg, rng)
	tp := ag.NewTape()
	out := tr.Encode(tp, []int{1, 2, 3, 4}, []int{0, 0, 1, 1})
	if out.Rows() != 4 || out.Cols() != 8 {
		t.Fatalf("shape %dx%d", out.Rows(), out.Cols())
	}
}

func TestTransformerContextSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cfg := TransformerConfig{Vocab: 20, Dim: 8, Heads: 2, Layers: 1, FFDim: 16, MaxLen: 10}
	tr := NewTransformer("bert", cfg, rng)
	tp := ag.NewTape()
	a := tr.Encode(tp, []int{5, 6, 7}, nil)
	b := tr.Encode(tp, []int{5, 9, 7}, nil)
	// Token 5 at position 0 must get different representations in different
	// contexts — the context-dependence property §IV-C1 credits BERT with.
	diff := 0.0
	for j := 0; j < 8; j++ {
		diff += math.Abs(a.Value.At(0, j) - b.Value.At(0, j))
	}
	if diff < 1e-9 {
		t.Fatal("transformer output is context independent")
	}
}

func TestTransformerEncodeWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := TransformerConfig{Vocab: 20, Dim: 8, Heads: 2, Layers: 1, FFDim: 16, MaxLen: 4}
	tr := NewTransformer("bert", cfg, rng)
	tp := ag.NewTape()
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8, 9} // 9 tokens, window 4
	out := tr.EncodeWindows(tp, ids, nil)
	if out.Rows() != 9 || out.Cols() != 8 {
		t.Fatalf("windowed shape %dx%d", out.Rows(), out.Cols())
	}
	// Direct Encode must reject the over-long input.
	defer func() {
		if recover() == nil {
			t.Fatal("Encode should reject over-long input")
		}
	}()
	tr.Encode(tp, ids, nil)
}

func TestTransformerGradFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cfg := TransformerConfig{Vocab: 12, Dim: 8, Heads: 2, Layers: 1, FFDim: 8, MaxLen: 6}
	tr := NewTransformer("bert", cfg, rng)
	tp := ag.NewTape()
	out := tr.Encode(tp, []int{1, 2, 3}, nil)
	tp.Backward(sumAll(tp, out))
	for _, p := range tr.Params() {
		// Segment embeddings for unused segment 1 legitimately get no grad.
		if p.Name == "bert.seg.E" {
			continue
		}
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("no gradient reached %s", p.Name)
		}
	}
}

func TestMultiHeadAttentionMask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMultiHeadSelfAttention("a", 8, 2, rng)
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(4, 8, 1, rng))
	// Block all attention to position 3.
	mask := tensor.New(4, 4)
	for i := 0; i < 4; i++ {
		mask.Set(i, 3, -1e9)
	}
	blocked := m.Forward(tp, x, mask)
	// Changing position 3's content must not affect other rows' outputs.
	x2 := x.Value.Clone()
	for j := 0; j < 8; j++ {
		x2.Set(3, j, x2.At(3, j)+5)
	}
	tp2 := ag.NewTape()
	blocked2 := m.Forward(tp2, tp2.Const(x2), mask)
	for i := 0; i < 3; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(blocked.Value.At(i, j)-blocked2.Value.At(i, j)) > 1e-9 {
				t.Fatal("mask failed to isolate position 3")
			}
		}
	}
}

func TestCollectParamsOrderStable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l1 := NewLinear("a", 2, 2, rng)
	l2 := NewLinear("b", 2, 2, rng)
	ps := CollectParams(l1, l2)
	if len(ps) != 4 || ps[0].Name != "a.W" || ps[2].Name != "b.W" {
		t.Fatalf("unexpected order: %v", []string{ps[0].Name, ps[1].Name, ps[2].Name, ps[3].Name})
	}
}

func BenchmarkBiLSTMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bi := NewBiLSTM("b", 32, 32, rng)
	x := tensor.Randn(64, 32, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := ag.NewTape()
		bi.Forward(tp, tp.Const(x))
	}
}

func BenchmarkTransformerEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := TransformerConfig{Vocab: 1000, Dim: 32, Heads: 4, Layers: 2, FFDim: 64, MaxLen: 64}
	tr := NewTransformer("bert", cfg, rng)
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = rng.Intn(1000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := ag.NewTape()
		tr.Encode(tp, ids, nil)
	}
}
