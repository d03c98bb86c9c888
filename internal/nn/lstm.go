package nn

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// LSTMOf is a single-direction LSTM with fused gate weights, the recurrent
// encoder used by the extractor E and the generator G in Joint-WB and by
// every Bi-LSTM baseline.
//
// Gate layout in the fused matrices is [input | forget | cell | output].
type LSTMOf[T tensor.Float] struct {
	Wx     *ag.ParamOf[T] // in×4h
	Wh     *ag.ParamOf[T] // h×4h
	B      *ag.ParamOf[T] // 1×4h
	Hidden int
}

// NewLSTM returns an LSTM with Glorot-initialised weights and forget-gate
// bias 1 (the standard trick to ease gradient flow early in training).
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	bx := xavier(in, 4*hidden)
	bh := xavier(hidden, 4*hidden)
	l := &LSTM{
		Wx:     ag.NewParam(name+".Wx", tensor.Uniform(in, 4*hidden, -bx, bx, rng)),
		Wh:     ag.NewParam(name+".Wh", tensor.Uniform(hidden, 4*hidden, -bh, bh, rng)),
		B:      ag.NewParam(name+".B", tensor.New(1, 4*hidden)),
		Hidden: hidden,
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B.Value.Data[j] = 1
	}
	return l
}

// CastLSTM returns an inference-only copy of l in element type D.
func CastLSTM[D, S tensor.Float](l *LSTMOf[S]) *LSTMOf[D] {
	return &LSTMOf[D]{
		Wx:     ag.CastParam[D](l.Wx),
		Wh:     ag.CastParam[D](l.Wh),
		B:      ag.CastParam[D](l.B),
		Hidden: l.Hidden,
	}
}

// Params implements Layer.
func (l *LSTMOf[T]) Params() []*ag.ParamOf[T] { return []*ag.ParamOf[T]{l.Wx, l.Wh, l.B} }

// StateOf is an LSTM hidden/cell pair, each rows×hidden (1 row per
// sequence; batched steps carry several).
type StateOf[T tensor.Float] struct {
	H, C *ag.NodeOf[T]
}

// ZeroState returns the all-zero initial state on tape t. The buffers come
// from the tape's arena, so they obey tape lifetime and cost no heap
// allocation on arena tapes.
func (l *LSTMOf[T]) ZeroState(t *ag.TapeOf[T]) StateOf[T] {
	return StateOf[T]{
		H: t.Const(t.AllocValue(1, l.Hidden)),
		C: t.Const(t.AllocValue(1, l.Hidden)),
	}
}

// Step advances the LSTM one timestep with input x (1×in, or one row per
// sequence of a fused batch — every row advances independently) and returns
// the new state.
func (l *LSTMOf[T]) Step(t *ag.TapeOf[T], x *ag.NodeOf[T], s StateOf[T]) StateOf[T] {
	return l.stepFrom(t, x, false, s)
}

// stepFrom is Step reading in, which is the input itself, or its projection
// in·Wx when projected is set (rows of recurrenceInput's result). On a
// no-gradient tape the gate arithmetic after the two matmuls is one fused
// tensor.LSTMCellInto pass (bitwise the op chain below, for both element
// types) instead of fifteen recorded ops; a recording tape keeps the chain,
// whose nodes are what Backward walks.
func (l *LSTMOf[T]) stepFrom(t *ag.TapeOf[T], in *ag.NodeOf[T], projected bool, s StateOf[T]) StateOf[T] {
	if !projected {
		in = t.MatMul(in, t.Use(l.Wx))
	}
	rec := t.MatMul(s.H, t.Use(l.Wh))
	h := l.Hidden
	if t.NoGrad() {
		hNew, cNew := t.AllocValue(in.Rows(), h), t.AllocValue(in.Rows(), h)
		tensor.LSTMCellInto(hNew, cNew, rec.Value, in.Value, l.B.Value, s.C.Value)
		return StateOf[T]{H: t.Const(hNew), C: t.Const(cNew)}
	}
	gates := t.AddRowVector(t.Add(in, rec), t.Use(l.B))
	i := t.Sigmoid(t.SliceCols(gates, 0, h))
	f := t.Sigmoid(t.SliceCols(gates, h, 2*h))
	g := t.Tanh(t.SliceCols(gates, 2*h, 3*h))
	o := t.Sigmoid(t.SliceCols(gates, 3*h, 4*h))
	c := t.Add(t.Mul(f, s.C), t.Mul(i, g))
	return StateOf[T]{H: t.Mul(o, t.Tanh(c)), C: c}
}

// recurrenceInput returns what the time loop over sequence x should feed
// stepFrom row by row. On a no-gradient tape that is the whole sequence's
// input projection x·Wx, hoisted out of the recurrence: seq latency-bound
// 1-row products become one seq-row matmul and only h·Wh stays inside
// the loop; matmul rows are computed independently in ascending-k order, so
// each hoisted row equals the per-step product exactly, for both element
// types. On a recording tape it is x itself: one seq-row product would sum
// Wx's gradient in a different order and move every trained bit.
func (l *LSTMOf[T]) recurrenceInput(t *ag.TapeOf[T], x *ag.NodeOf[T]) (in *ag.NodeOf[T], projected bool) {
	if !t.NoGrad() {
		return x, false
	}
	return t.MatMul(x, t.Use(l.Wx)), true
}

// run advances the LSTM over the rows of x — last row first when reverse is
// set — and returns the hidden state at every row position.
func (l *LSTMOf[T]) run(t *ag.TapeOf[T], x *ag.NodeOf[T], reverse bool) []*ag.NodeOf[T] {
	seq := x.Rows()
	hs := make([]*ag.NodeOf[T], seq)
	s := l.ZeroState(t)
	in, projected := l.recurrenceInput(t, x)
	for k := 0; k < seq; k++ {
		i := k
		if reverse {
			i = seq - 1 - k
		}
		s = l.stepFrom(t, t.SliceRows(in, i, i+1), projected, s)
		hs[i] = s.H
	}
	return hs
}

// Forward runs the LSTM over a seq×in input and returns the seq×hidden
// matrix of hidden states.
func (l *LSTMOf[T]) Forward(t *ag.TapeOf[T], x *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.ConcatRows(l.run(t, x, false)...)
}

// BiLSTMOf runs two LSTMs over the sequence in opposite directions and
// concatenates their hidden states, the encoder of §III-C.
type BiLSTMOf[T tensor.Float] struct {
	Fwd, Bwd *LSTMOf[T]
}

// NewBiLSTM returns a Bi-LSTM whose output width is 2*hidden.
func NewBiLSTM(name string, in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(name+".fwd", in, hidden, rng),
		Bwd: NewLSTM(name+".bwd", in, hidden, rng),
	}
}

// CastBiLSTM returns an inference-only copy of b in element type D.
func CastBiLSTM[D, S tensor.Float](b *BiLSTMOf[S]) *BiLSTMOf[D] {
	return &BiLSTMOf[D]{Fwd: CastLSTM[D](b.Fwd), Bwd: CastLSTM[D](b.Bwd)}
}

// Params implements Layer.
func (b *BiLSTMOf[T]) Params() []*ag.ParamOf[T] {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// OutDim returns the concatenated hidden width.
func (b *BiLSTMOf[T]) OutDim() int { return b.Fwd.Hidden + b.Bwd.Hidden }

// Forward returns the seq×2h matrix of concatenated forward/backward states.
func (b *BiLSTMOf[T]) Forward(t *ag.TapeOf[T], x *ag.NodeOf[T]) *ag.NodeOf[T] {
	fwd := b.Fwd.run(t, x, false)
	bwd := b.Bwd.run(t, x, true)
	rows := make([]*ag.NodeOf[T], len(fwd))
	for i := range rows {
		rows[i] = t.ConcatCols2(fwd[i], bwd[i])
	}
	return t.ConcatRows(rows...)
}
