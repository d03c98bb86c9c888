package wb

import (
	"fmt"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// FoldTablesOf holds the products of a GloVe-encoder Joint-WB forward that
// depend on nothing but weights × token id, one row per vocabulary entry
// (nn.InputTable): E's two input projections and the embedding half of the
// decoder cell's. An Eval forward over them gathers rows where it used to
// multiply — every value it produces is bit for bit the unfolded forward's,
// because a table row is the same ascending-k sum the forward would have
// computed, stopped at a constant boundary and resumed from there.
//
// The cost is 3 · V · 4h elements per element type — 4h/d times the size of
// the embedding matrix itself (≈ 8.6× at d = 50, h = 108), all of it built
// eagerly. A vocabulary of GloVe's real size would want rows built on first
// use; this one builds them at load.
type FoldTablesOf[T tensor.Float] struct {
	ExtFwd, ExtBwd *tensor.MatrixOf[T] // Emb·ExtLSTM.{Fwd,Bwd}.Wx, V×4h
	Dec            *tensor.MatrixOf[T] // Dec.Emb·Dec.Cell.Wx[:embDim], V×4h
}

// Bytes is the storage the tables occupy.
func (f *FoldTablesOf[T]) Bytes() int64 {
	width := 8
	if _, ok := any(f.Dec).(*tensor.Matrix32); ok {
		width = 4
	}
	return FoldTableBytes(f.Dec.Rows, f.Dec.Cols/4, width)
}

// FoldTableBytes is FoldTablesOf.Bytes for a model of the given shape at the
// given element width, without building anything — what wbsnap -info reports.
func FoldTableBytes(vocab, hidden, elemBytes int) int64 {
	return 3 * int64(vocab) * 4 * int64(hidden) * int64(elemBytes)
}

// FoldedOf is a Joint-WB model frozen for serving, together with its fold
// tables. It is a ModelOf and a BatchForwarderOf: ForwardBatchEval on a
// no-gradient tape — the one inference path, a lone page being a batch of one
// — reads the tables; Forward is the plain model's per-instance forward,
// which never sees a table.
//
// A table that outlived the weights it was built from would be a silently
// wrong model, so the type makes that state unreachable instead of checked:
// the model inside is a private copy nothing else holds, Params returns
// nothing (an optimizer built over a FoldedOf has nothing to step), and the
// only constructors build model and tables together. Under `-tags wbdebug`
// every folded forward also re-derives one sampled row of each table from
// the weights it is about to run with.
type FoldedOf[T tensor.Float] struct {
	m      *JointWBOf[T] // the plain model: Forward
	folded *JointWBOf[T] // m with the decoder's table view as Dec: ForwardBatchEval
	tables *FoldTablesOf[T]
}

// Tables returns the fold tables: read-only, like the model they were built
// from.
func (f *FoldedOf[T]) Tables() *FoldTablesOf[T] { return f.tables }

// Name implements ModelOf.
func (f *FoldedOf[T]) Name() string { return f.m.Name() }

// Params implements nn.LayerOf: a folded model has no trainable parameters.
func (f *FoldedOf[T]) Params() []*ag.ParamOf[T] { return nil }

// Forward implements ModelOf.
func (f *FoldedOf[T]) Forward(t *ag.TapeOf[T], inst *Instance, mode Mode) *OutputOf[T] {
	return f.m.Forward(t, inst, mode)
}

// ForwardBatchEval implements BatchForwarderOf.
func (f *FoldedOf[T]) ForwardBatchEval(t *ag.TapeOf[T], insts []*Instance) []*OutputOf[T] {
	if !t.NoGrad() {
		return f.m.ForwardBatchEval(t, insts)
	}
	for _, inst := range insts {
		debugCheckFold(f, inst)
	}
	return f.folded.forwardBatchEval(t, insts, f.tables)
}

// buildTables computes the fold tables of m, a GloVe-encoder model the
// caller owns outright: no parameter of it may be reachable by anything that
// could write to it.
func buildTables[T tensor.Float](m *JointWBOf[T]) *FoldTablesOf[T] {
	emb := m.Enc.(*GloVeEncoderOf[T]).Emb
	return &FoldTablesOf[T]{
		ExtFwd: nn.InputTable(emb, m.ExtLSTM.Fwd),
		ExtBwd: nn.InputTable(emb, m.ExtLSTM.Bwd),
		Dec:    nn.InputTable(m.Dec.Emb, m.Dec.Cell),
	}
}

// withTables wraps an owned model around tables built from weights equal to
// its own. The folded forward runs a shallow copy of m whose Dec is the
// decoder view carrying the decoder table, so every decode that starts from
// its outputs is folded too.
func withTables[T tensor.Float](m *JointWBOf[T], tables *FoldTablesOf[T]) *FoldedOf[T] {
	folded := *m
	folded.Dec = m.Dec.WithInputTable(tables.Dec)
	return &FoldedOf[T]{m: m, folded: &folded, tables: tables}
}

// FoldForServing returns the one serving copy of a trained GloVe-encoder
// model a pool generation needs, folded: the teacher tier serve.NewPool shares
// among all its replicas. The copy goes through the snapshot codec round-trip
// — one encode, one decode, whatever the replica count — so it is exactly the
// model a restart would load: float64 bit patterns are preserved, making its
// briefings byte-identical to m's. It shares no storage with m, not even the
// embedding matrix, so training m afterwards cannot reach it.
//
// One copy serves every replica because nothing in an Eval forward on a
// no-gradient tape writes to the model: no dropout, no gradients (ag.TapeOf.Use
// returns before it touches a parameter's Grad), and all per-forward state
// lives on the caller's BatchScratchOf.
func FoldForServing(m *JointWB, v *textproc.Vocab) (*FoldedOf[float64], error) {
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		return nil, fmt.Errorf("wb: fold for serving: %w", err)
	}
	c, _, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("wb: fold for serving: %w", err)
	}
	return withTables(c, buildTables(c)), nil
}

// FoldStudent lowers a trained model to its float32 student
// (ConvertJointWB, whose result shares no storage with m) and folds it. The
// student's weights are read-only at inference, so one FoldedOf serves
// every replica.
func FoldStudent(m *JointWB) (*FoldedOf[float32], error) {
	s, err := ConvertJointWB(m)
	if err != nil {
		return nil, fmt.Errorf("wb: fold student: %w", err)
	}
	return withTables(s, buildTables(s)), nil
}
