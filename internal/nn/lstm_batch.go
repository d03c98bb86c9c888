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
	fwd, bwd := make([]seqInputOf[T], len(xs)), make([]seqInputOf[T], len(xs))
	for i, x := range xs {
		fwd[i], bwd[i] = b.Fwd.recurrenceInput(t, x), b.Bwd.recurrenceInput(t, x)
	}
	return b.forwardBatch(t, fwd, bwd)
}

// ForwardBatchIDs is ForwardBatch over the embeddings of each sequence's
// token ids, with both directions' input projections read from their input
// tables — ForwardIDs' contract, in lockstep. No-gradient tapes only.
func (b *BiLSTMOf[T]) ForwardBatchIDs(t *ag.TapeOf[T], fwdTab, bwdTab *tensor.MatrixOf[T], idss [][]int) []*ag.NodeOf[T] {
	fwd, bwd := make([]seqInputOf[T], len(idss)), make([]seqInputOf[T], len(idss))
	for i, ids := range idss {
		fwd[i], bwd[i] = tableInput(t, fwdTab, ids), tableInput(t, bwdTab, ids)
	}
	return b.forwardBatch(t, fwd, bwd)
}

func (b *BiLSTMOf[T]) forwardBatch(t *ag.TapeOf[T], fwd, bwd []seqInputOf[T]) []*ag.NodeOf[T] {
	// Every output cell is written by one of the two directions' scatters.
	outs := make([]*tensor.MatrixOf[T], len(fwd))
	for i, in := range fwd {
		outs[i] = t.AllocValueUninit(in.len(), b.Fwd.Hidden+b.Bwd.Hidden)
	}
	lstmLockstep(t, b.Fwd, fwd, outs, 0, false)
	lstmLockstep(t, b.Bwd, bwd, outs, b.Fwd.Hidden, true)
	nodes := make([]*ag.NodeOf[T], len(outs))
	for i, m := range outs {
		nodes[i] = t.Const(m)
	}
	return nodes
}

// lstmLockstep advances l over all sequences at once, writing each hidden
// state into columns [colOff, colOff+h) of the owning sequence's output
// matrix. reverse selects the backward direction (input position len-1-t at
// step t, as in BiLSTM.Forward's backward direction). ins[i] is what each
// step gathers sequence i's row from: its inputs, its hoisted projection
// (LSTMOf.recurrenceInput) or its rows of an input table (tableInput) — in
// the last two cases the only matmul inside the recurrence is h·Wh.
func lstmLockstep[T tensor.Float](t *ag.TapeOf[T], l *LSTMOf[T], ins []seqInputOf[T], outs []*tensor.MatrixOf[T], colOff int, reverse bool) {
	n := len(ins)
	if n == 0 {
		return
	}
	h := l.Hidden
	maxLen := 0
	for _, in := range ins {
		maxLen = max(maxLen, in.len())
	}
	width, projected := ins[0].m.Cols, ins[0].projected()
	// Per-sequence running states, zero-initialised like ZeroState; each
	// step gathers the active ones into a slab and scatters the results
	// back, so a sequence's state never mixes with its neighbours'.
	hs := make([]*tensor.MatrixOf[T], n)
	cs := make([]*tensor.MatrixOf[T], n)
	for i := range ins {
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
		for i, in := range ins {
			if step < in.len() {
				active = append(active, i)
			}
		}
		a := len(active)
		// Gather this step's input row from every active sequence. The
		// three slabs are gather destinations: every row is copied into.
		x := t.AllocValueUninit(a, width)
		mats, rows = mats[:0], rows[:0]
		for _, i := range active {
			pos := step
			if reverse {
				pos = ins[i].len() - 1 - step
			}
			mats = append(mats, ins[i].m)
			rows = append(rows, ins[i].row(pos))
		}
		tensor.GatherRowsInto(x, mats, rows)
		// Gather the active running states into a-row slabs.
		hp := t.AllocValueUninit(a, h)
		cp := t.AllocValueUninit(a, h)
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
				pos = ins[i].len() - 1 - step
			}
			mats = append(mats, outs[i])
			rows = append(rows, pos)
		}
		tensor.ScatterRowSpansInto(mats, rows, colOff, st.H.Value)
	}
}
