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
		Wx:     param(name+".Wx", uniform(in, 4*hidden, bx, rng), rng),
		Wh:     param(name+".Wh", uniform(hidden, 4*hidden, bh, rng), rng),
		B:      param(name+".B", tensor.New(1, 4*hidden), rng),
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
	if t.NoGrad() {
		return l.fusedCell(t, in.Value, rec.Value, s.C.Value)
	}
	h := l.Hidden
	gates := t.AddRowVector(t.Add(in, rec), t.Use(l.B))
	i := t.Sigmoid(t.SliceCols(gates, 0, h))
	f := t.Sigmoid(t.SliceCols(gates, h, 2*h))
	g := t.Tanh(t.SliceCols(gates, 2*h, 3*h))
	o := t.Sigmoid(t.SliceCols(gates, 3*h, 4*h))
	c := t.Add(t.Mul(f, s.C), t.Mul(i, g))
	return StateOf[T]{H: t.Mul(o, t.Tanh(c)), C: c}
}

// fusedCell is a no-gradient step's gate arithmetic, one
// tensor.LSTMCellInto pass: the new state of each row from its input
// projection in, its recurrent projection rec = h·Wh and its cell state c.
func (l *LSTMOf[T]) fusedCell(t *ag.TapeOf[T], in, rec, c *tensor.MatrixOf[T]) StateOf[T] {
	hNew, cNew := t.AllocValueUninit(in.Rows, l.Hidden), t.AllocValueUninit(in.Rows, l.Hidden)
	tensor.LSTMCellInto(hNew, cNew, rec, in, l.B.Value, c)
	return StateOf[T]{H: t.Const(hNew), C: t.Const(cNew)}
}

// seqInputOf is where one sequence's recurrence reads its per-step inputs:
// row i of m — or, when rows is set, row rows[i] (an input table indexed by
// token id, see InputTable). The rows are already in·Wx, ready for
// stepFrom(…, projected=true), unless src is set: then m is src's value, the
// raw inputs of a recording tape, and each step is a recorded slice of src.
type seqInputOf[T tensor.Float] struct {
	m    *tensor.MatrixOf[T]
	rows []int
	src  *ag.NodeOf[T]
}

// projected reports whether the rows are input projections.
func (in seqInputOf[T]) projected() bool { return in.src == nil }

// len is the sequence length.
func (in seqInputOf[T]) len() int {
	if in.rows != nil {
		return len(in.rows)
	}
	return in.m.Rows
}

// row is the row of m that step position i reads.
func (in seqInputOf[T]) row(i int) int {
	if in.rows != nil {
		return in.rows[i]
	}
	return i
}

// InputTable returns Emb·Wx[:Emb.Dim()] — for every token id, the part of
// l's input projection that depends on nothing but the id — as a vocab×4h
// matrix built with the kernel the forward itself runs. When the embedding
// spans l's whole input, row id IS the projection of that token
// (tableInput); when l's input is [embedding | rest], row id is the first
// Emb.Dim() terms of each gate sum and tensor.MatMulInto of rest over
// Wx[Emb.Dim():] continues it (AttnDecoderOf.WithInputTable): every kernel
// accumulates a cell in ascending k starting from what the destination
// holds, so the sum split at a constant boundary is the one-pass sequence,
// for both element types (tensor's TestMatMulSplitKBitwise).
//
// The table is a function of the two parameters' values at the time of the
// call and does not follow them: it belongs to models nothing can train.
func InputTable[T tensor.Float](emb *EmbeddingOf[T], l *LSTMOf[T]) *tensor.MatrixOf[T] {
	tab := tensor.NewOf[T](emb.Vocab(), 4*l.Hidden)
	tensor.MatMulInto(tab, emb.Table.Value, wxRows(l, 0, emb.Dim()))
	return tab
}

// wxRows views rows [lo, hi) of l.Wx (rows of a row-major matrix are
// contiguous, so the view shares storage).
func wxRows[T tensor.Float](l *LSTMOf[T], lo, hi int) *tensor.MatrixOf[T] {
	wx := l.Wx.Value
	return tensor.FromSlice(hi-lo, wx.Cols, wx.Data[lo*wx.Cols:hi*wx.Cols])
}

// tableInput is the folded seqInputOf: the sequence's token ids index tab,
// the LSTM's InputTable over the embedding the ids would have been looked up
// in. No product is computed at all — the projection of every possible token
// was paid once, when the table was built. Recording tapes never get here:
// a gathered constant would cut Wx and the embedding out of the graph.
func tableInput[T tensor.Float](t *ag.TapeOf[T], tab *tensor.MatrixOf[T], ids []int) seqInputOf[T] {
	if !t.NoGrad() {
		panic("nn: input table on a recording tape")
	}
	checkIDs("input table", ids, tab.Rows)
	return seqInputOf[T]{m: tab, rows: ids}
}

// recurrenceInput returns what the time loop over sequence x should feed
// stepFrom row by row. On a no-gradient tape that is the whole sequence's
// input projection x·Wx, hoisted out of the recurrence: seq latency-bound
// 1-row products become one seq-row matmul and only h·Wh stays inside
// the loop; matmul rows are computed independently in ascending-k order, so
// each hoisted row equals the per-step product exactly, for both element
// types. On a recording tape it is x itself: one seq-row product would sum
// Wx's gradient in a different order and move every trained bit.
func (l *LSTMOf[T]) recurrenceInput(t *ag.TapeOf[T], x *ag.NodeOf[T]) seqInputOf[T] {
	if !t.NoGrad() {
		return seqInputOf[T]{m: x.Value, src: x}
	}
	return seqInputOf[T]{m: t.MatMul(x, t.Use(l.Wx)).Value}
}

// run advances the LSTM over in, recurrenceInput's result — last position
// first when reverse is set — and returns the hidden state at every position.
// A projected input is read in place, one row view per step; an unprojected
// one (a recording tape) is sliced out of its source node, which the gradient
// must flow back through. Table inputs never get here: they run in lockstep.
func (l *LSTMOf[T]) run(t *ag.TapeOf[T], in seqInputOf[T], reverse bool) []*ag.NodeOf[T] {
	seq := in.len()
	hs := make([]*ag.NodeOf[T], seq)
	s := l.ZeroState(t)
	for k := 0; k < seq; k++ {
		i := k
		if reverse {
			i = seq - 1 - k
		}
		var step *ag.NodeOf[T]
		if in.projected() {
			step = t.Const(t.ViewValue(1, in.m.Cols, in.m.Row(i)))
		} else {
			step = t.SliceRows(in.src, i, i+1)
		}
		s = l.stepFrom(t, step, in.projected(), s)
		hs[i] = s.H
	}
	return hs
}

// Forward runs the LSTM over a seq×in input and returns the seq×hidden
// matrix of hidden states.
func (l *LSTMOf[T]) Forward(t *ag.TapeOf[T], x *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.ConcatRows(l.run(t, l.recurrenceInput(t, x), false)...)
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

// Forward returns the seq×2h matrix of concatenated forward/backward states.
func (b *BiLSTMOf[T]) Forward(t *ag.TapeOf[T], x *ag.NodeOf[T]) *ag.NodeOf[T] {
	fwd := b.Fwd.run(t, b.Fwd.recurrenceInput(t, x), false)
	bwd := b.Bwd.run(t, b.Bwd.recurrenceInput(t, x), true)
	rows := make([]*ag.NodeOf[T], len(fwd))
	for i := range rows {
		rows[i] = t.ConcatCols2(fwd[i], bwd[i])
	}
	return t.ConcatRows(rows...)
}
