package nn

import (
	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// ForwardBatch runs the Bi-LSTM over a ragged batch of sequences in
// lockstep, fusing each timestep's per-sequence 1-row recurrences into one
// B-row Step so the gate matmuls amortize panel packing and cache traffic
// across the batch. It returns one seq_i×2h node per input, each bitwise
// identical (up to the sign of zero, see tensor/kernels.go) to what Forward
// would produce for that sequence alone: every kernel in the Step chain
// computes output rows independently, and the gather/scatter helpers only
// move rows between the per-sequence matrices and the dense slab.
//
// Sequences of different lengths are handled by active-set compaction: step
// t gathers rows only from sequences still inside their length (the forward
// pass reads row t, the backward pass row len-1-t), so no padding rows are
// ever computed or written. Inference-only — intermediate states are not
// recorded for backprop beyond what the underlying tape records itself.
func (b *BiLSTMOf[T]) ForwardBatch(t *ag.TapeOf[T], xs []*ag.NodeOf[T]) []*ag.NodeOf[T] {
	outs := make([]*tensor.MatrixOf[T], len(xs))
	for i, x := range xs {
		outs[i] = t.AllocValue(x.Rows(), b.Fwd.Hidden+b.Bwd.Hidden)
	}
	lstmLockstep(t, b.Fwd, xs, outs, 0, false)
	lstmLockstep(t, b.Bwd, xs, outs, b.Fwd.Hidden, true)
	nodes := make([]*ag.NodeOf[T], len(xs))
	for i, m := range outs {
		nodes[i] = t.Const(m)
	}
	return nodes
}

// lstmLockstep advances l over all sequences at once, writing each hidden
// state into columns [colOff, colOff+h) of the owning sequence's output
// matrix. reverse selects the backward direction (input row len-1-t at step
// t, as in BiLSTM.Forward's backward direction). On no-gradient tapes each
// sequence's input projection is hoisted out of the time loop (see
// LSTMOf.recurrenceInput): the per-step gather then reads projected 4h-wide
// rows and the only matmul inside the recurrence is h·Wh.
func lstmLockstep[T tensor.Float](t *ag.TapeOf[T], l *LSTMOf[T], xs []*ag.NodeOf[T], outs []*tensor.MatrixOf[T], colOff int, reverse bool) {
	n := len(xs)
	if n == 0 {
		return
	}
	h := l.Hidden
	maxLen := 0
	for _, x := range xs {
		if x.Rows() > maxLen {
			maxLen = x.Rows()
		}
	}
	// ins[i] is what each step gathers sequence i's row from: its inputs, or
	// its hoisted projection.
	ins := make([]*tensor.MatrixOf[T], n)
	projected := false
	for i, x := range xs {
		var in *ag.NodeOf[T]
		in, projected = l.recurrenceInput(t, x)
		ins[i] = in.Value
	}
	in := ins[0].Cols
	// Per-sequence running states, zero-initialised like ZeroState; each
	// step gathers the active ones into a slab and scatters the results
	// back, so a sequence's state never mixes with its neighbours'.
	hs := make([]*tensor.MatrixOf[T], n)
	cs := make([]*tensor.MatrixOf[T], n)
	for i := range xs {
		hs[i] = t.AllocValue(1, h)
		cs[i] = t.AllocValue(1, h)
	}
	var (
		active = make([]int, 0, n)
		mats   = make([]*tensor.MatrixOf[T], 0, n)
		rows   = make([]int, 0, n)
		zeros  = make([]int, n)
	)
	for step := 0; step < maxLen; step++ {
		active = active[:0]
		for i, x := range xs {
			if step < x.Rows() {
				active = append(active, i)
			}
		}
		a := len(active)
		// Gather this step's input row from every active sequence.
		x := t.AllocValue(a, in)
		mats, rows = mats[:0], rows[:0]
		for _, i := range active {
			pos := step
			if reverse {
				pos = xs[i].Rows() - 1 - step
			}
			mats = append(mats, ins[i])
			rows = append(rows, pos)
		}
		tensor.GatherRowsInto(x, mats, rows)
		// Gather the active running states into a-row slabs.
		hp := t.AllocValue(a, h)
		cp := t.AllocValue(a, h)
		mats = mats[:0]
		for _, i := range active {
			mats = append(mats, hs[i])
		}
		tensor.GatherRowsInto(hp, mats, zeros[:a])
		mats = mats[:0]
		for _, i := range active {
			mats = append(mats, cs[i])
		}
		tensor.GatherRowsInto(cp, mats, zeros[:a])
		// One fused a-row step for all active sequences.
		st := l.stepFrom(t, t.Const(x), projected, StateOf[T]{H: t.Const(hp), C: t.Const(cp)})
		// Scatter the new states back and the hidden rows into the outputs.
		mats = mats[:0]
		for _, i := range active {
			mats = append(mats, hs[i])
		}
		tensor.ScatterRowsInto(mats, zeros[:a], st.H.Value)
		mats = mats[:0]
		for _, i := range active {
			mats = append(mats, cs[i])
		}
		tensor.ScatterRowsInto(mats, zeros[:a], st.C.Value)
		mats, rows = mats[:0], rows[:0]
		for _, i := range active {
			pos := step
			if reverse {
				pos = xs[i].Rows() - 1 - step
			}
			mats = append(mats, outs[i])
			rows = append(rows, pos)
		}
		tensor.ScatterRowSpansInto(mats, rows, colOff, st.H.Value)
	}
}
