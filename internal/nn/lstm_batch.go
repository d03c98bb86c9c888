package nn

import (
	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// ForwardBatch runs the Bi-LSTM over a ragged batch of sequences in
// lockstep, fusing each timestep's per-sequence 1-row recurrences into one
// B-row Step so the gate matmuls share each load of the weights across the
// batch (the register tile, tensor/kernels.go). It returns one seq_i×2h node
// per input, each bitwise identical (up to the sign of zero, see
// tensor/kernels.go) to what Forward would produce for that sequence alone:
// every kernel in the Step chain computes output rows independently, and the
// gather/scatter helpers only move rows between the per-sequence matrices
// and the dense slab.
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
// token ids without looking them up: fwdTab and bwdTab are the two
// directions' input tables (InputTable over the embedding and b.Fwd / b.Bwd),
// so each step's input projection is a table row instead of a product. Every
// value equals ForwardBatch's over the looked-up embeddings (a table row IS
// that row's projection, computed by the same kernel). No-gradient tapes
// only.
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
// step reads sequence i's row from: its inputs, its hoisted projection
// (LSTMOf.recurrenceInput) or its rows of an input table (tableInput) — in
// the last two cases the only matmul inside the recurrence is h·Wh. Inference
// only: one input slab is reused by every step, so nothing recorded here can
// be backpropagated through.
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
	// The running states are slabs, one row per sequence still inside its
	// length, in sequence order: zero like ZeroState before the first step,
	// and from then on the previous step's own output. Sequences only ever
	// drop out, so a slab is reused as it stands until one does and is then
	// compacted to the survivors' rows — a sequence's state never mixes with
	// its neighbours'.
	active := make([]int, 0, n)
	for i, in := range ins {
		if in.len() > 0 {
			active = append(active, i)
		}
	}
	s := StateOf[T]{H: t.Const(t.AllocValue(len(active), h)), C: t.Const(t.AllocValue(len(active), h))}
	// One input slab serves every step with several active sequences: a
	// step's rows are consumed by that step's products and never read again.
	var xs *tensor.MatrixOf[T]
	if len(active) > 1 {
		xs = t.AllocValueUninit(len(active), width)
	}
	var (
		mats = make([]*tensor.MatrixOf[T], 0, n)
		rows = make([]int, 0, n)
	)
	survivors := func(slab *ag.NodeOf[T]) *ag.NodeOf[T] {
		mats = mats[:0]
		for range rows {
			mats = append(mats, slab.Value)
		}
		kept := t.AllocValueUninit(len(rows), h)
		tensor.GatherRowsInto(kept, mats, rows)
		return t.Const(kept)
	}
	for step := 0; step < maxLen; step++ {
		rows = rows[:0]
		for j, i := range active {
			if step < ins[i].len() {
				active[len(rows)] = i
				rows = append(rows, j)
			}
		}
		if len(rows) < len(active) {
			active = active[:len(rows)]
			s = StateOf[T]{H: survivors(s.H), C: survivors(s.C)}
		}
		a := len(active)
		// This step's input row of every active sequence: a lone
		// sequence's row is read where it lies, several are gathered into
		// the slab's first a rows, every one of which is copied into.
		mats, rows = mats[:0], rows[:0]
		for _, i := range active {
			pos := step
			if reverse {
				pos = ins[i].len() - 1 - step
			}
			mats = append(mats, ins[i].m)
			rows = append(rows, ins[i].row(pos))
		}
		var x *tensor.MatrixOf[T]
		if a == 1 {
			x = t.ViewValue(1, width, mats[0].Row(rows[0]))
		} else {
			x = t.ViewValue(a, width, xs.Data[:a*width])
			tensor.GatherRowsInto(x, mats, rows)
		}
		// One fused a-row step for all active sequences.
		s = l.stepFrom(t, t.Const(x), projected, s)
		// Scatter the hidden rows into the outputs.
		mats, rows = mats[:0], rows[:0]
		for _, i := range active {
			pos := step
			if reverse {
				pos = ins[i].len() - 1 - step
			}
			mats = append(mats, outs[i])
			rows = append(rows, pos)
		}
		tensor.ScatterRowSpansInto(mats, rows, colOff, s.H.Value)
	}
}
