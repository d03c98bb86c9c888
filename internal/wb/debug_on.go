//go:build wbdebug

package wb

import (
	"fmt"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
)

// debugCheckFold re-derives, from the weights f is about to run with, the
// row of each fold table that inst's middle token selects, and panics when a
// table disagrees: a table that outlived its weights. FoldedOf makes that
// state unreachable through its API; this is the tripwire for code that
// reaches around it.
func debugCheckFold[T tensor.Float](f *FoldedOf[T], inst *Instance) {
	id := inst.IDs[len(inst.IDs)/2]
	check := func(name string, tab *tensor.MatrixOf[T], emb *nn.EmbeddingOf[T], l *nn.LSTMOf[T]) {
		row := tensor.FromSlice(1, emb.Dim(), emb.Table.Value.Row(id))
		want := nn.InputTable(&nn.EmbeddingOf[T]{Table: &ag.ParamOf[T]{Value: row}}, l)
		for j, w := range want.Data {
			if got := tab.Row(id)[j]; got != w {
				panic(fmt.Sprintf("wb: stale fold table %s: row %d col %d holds %v, the weights give %v", name, id, j, got, w))
			}
		}
	}
	emb := f.m.Enc.(*GloVeEncoderOf[T]).Emb
	check("ExtFwd", f.tables.ExtFwd, emb, f.m.ExtLSTM.Fwd)
	check("ExtBwd", f.tables.ExtBwd, emb, f.m.ExtLSTM.Bwd)
	check("Dec", f.tables.Dec, f.m.Dec.Emb, f.m.Dec.Cell)
}
