package serve

import (
	"math/rand"
	"testing"

	"webbrief/internal/nn"
	"webbrief/internal/wb"
)

// TestPoolSharesFoldTables: a pool's fold tables are built once per tier and
// read by every replica — the same pointer, not equal copies — its teacher
// copies share nothing with the model the pool was built from, and a second
// pool from the same model (what a hot reload builds) has tables of its own.
func TestPoolSharesFoldTables(t *testing.T) {
	m, v, _ := trainedModel(t)
	tables := func(p *Pool) (*wb.FoldTablesOf[float64], *wb.FoldTablesOf[float32]) {
		t.Helper()
		var teacher *wb.FoldTablesOf[float64]
		var student *wb.FoldTablesOf[float32]
		for i := 0; i < p.Size(); i++ {
			r, ok := p.TryGet()
			if !ok {
				t.Fatal("pool not idle")
			}
			defer p.Put(r)
			mr := r.(*modelReplica)
			ft, fs := mr.model.(*wb.FoldedOf[float64]).Tables(), mr.student.(*wb.FoldedOf[float32]).Tables()
			if i == 0 {
				teacher, student = ft, fs
			} else if ft != teacher || fs != student {
				t.Fatalf("replica %d reads fold tables of its own", i)
			}
		}
		return teacher, student
	}
	p1, err := NewCascadePool(m, v, 3, 2, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	teacher, student := tables(p1)
	if got, want := p1.Fold().Bytes, teacher.Bytes()+student.Bytes(); got != want || want == 0 {
		t.Fatalf("Fold().Bytes = %d, the two tiers' tables hold %d", got, want)
	}
	if p1.Fold().Built <= 0 {
		t.Fatalf("Fold().Built = %v, want the time the pool's models took", p1.Fold().Built)
	}
	p2, err := NewCascadePool(m, v, 3, 2, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if t2, s2 := tables(p2); t2 == teacher || s2 == student {
		t.Fatal("a second pool generation reuses the first's fold tables")
	}
}

// TestPoolServesUnfoldableModelAsIs: a transformer-encoder model has no
// snapshot form and no fold tables; a pool of one still serves it, unfolded.
func TestPoolServesUnfoldableModelAsIs(t *testing.T) {
	_, v, _ := trainedModel(t)
	tc := nn.TransformerConfig{Vocab: v.Size(), Dim: 12, Heads: 2, Layers: 1, FFDim: 24, MaxLen: 32, Segments: 2}
	enc := wb.NewBERTEncoder("bert", tc, false, rand.New(rand.NewSource(4)))
	bm := wb.NewJointWB("bert-serve", enc, v.Size(), wb.DefaultConfig())
	p, err := NewPool(bm, v, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fold().Bytes != 0 {
		t.Fatalf("an unfoldable model reports fold tables: %+v", p.Fold())
	}
	r, _ := p.TryGet()
	if r.(*modelReplica).model != wb.Model(bm) {
		t.Fatal("a pool of one over an unfoldable model must serve the model itself")
	}
	if _, err := NewPool(bm, v, 2, 2, 0); err == nil {
		t.Fatal("two replicas of a model with no snapshot form were built")
	}
}
