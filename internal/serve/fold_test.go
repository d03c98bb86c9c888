package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"webbrief/internal/nn"
	"webbrief/internal/wb"
)

// TestPoolSharesFoldTables: a pool generation's models and fold tables are
// built once per tier and read by every replica — the same teacher pointer,
// the same student pointer, the same tables, not equal copies — while each
// replica's workspaces are its own; and a second pool from the same model
// (what a hot reload builds) has models and tables of its own.
func TestPoolSharesFoldTables(t *testing.T) {
	m, v, _ := trainedModel(t)
	tiers := func(p *Pool) (*wb.FoldedOf[float64], *wb.FoldedOf[float32]) {
		t.Helper()
		var teacher *wb.FoldedOf[float64]
		var student *wb.FoldedOf[float32]
		scratches := map[any]bool{}
		for i := 0; i < p.Size(); i++ {
			r, ok := p.TryGet()
			if !ok {
				t.Fatal("pool not idle")
			}
			defer p.Put(r)
			mr := r.(*modelReplica)
			if len(mr.tiers) != 2 {
				t.Fatalf("replica %d has %d tiers, want student then teacher", i, len(mr.tiers))
			}
			st, tt := mr.tiers[0].(*tierOf[float32]), mr.tiers[1].(*tierOf[float64])
			fs, ft := st.model.(*wb.FoldedOf[float32]), tt.model.(*wb.FoldedOf[float64])
			if i == 0 {
				teacher, student = ft, fs
			} else if ft != teacher || fs != student {
				t.Fatalf("replica %d reads models of its own", i)
			}
			if scratches[st.scratch] || scratches[tt.scratch] {
				t.Fatalf("replica %d shares a workspace with another replica", i)
			}
			scratches[st.scratch], scratches[tt.scratch] = true, true
		}
		return teacher, student
	}
	cfg := Config{BeamWidth: 2, Cascade: true, ConfidenceThreshold: 0.5}
	p1, err := NewPool(m, v, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	teacher, student := tiers(p1)
	if got, want := p1.Fold().Bytes, teacher.Tables().Bytes()+student.Tables().Bytes(); got != want || want == 0 {
		t.Fatalf("Fold().Bytes = %d, the two tiers' tables hold %d", got, want)
	}
	if p1.Fold().Built <= 0 {
		t.Fatalf("Fold().Built = %v, want the time the pool's models took", p1.Fold().Built)
	}
	p2, err := NewPool(m, v, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, s2 := tiers(p2)
	if t2 == teacher || s2 == student {
		t.Fatal("a second pool generation reuses the first's models")
	}
	if t2.Tables() == teacher.Tables() || s2.Tables() == student.Tables() {
		t.Fatal("a second pool generation reuses the first's fold tables")
	}
}

// TestPoolFoldsAblation: the fold is a parameter copy, not a snapshot round
// trip, so the NoMarkov ablation — which the snapshot format cannot record —
// folds like any GloVe-encoder model, on more than one replica, and serves the
// bytes of its own serial path.
func TestPoolFoldsAblation(t *testing.T) {
	m, v, pages := trainedModel(t)
	m.Sec.NoMarkov = true
	const beam = 2
	srv, err := New(m, v, Config{Replicas: 2, BeamWidth: beam})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Pool().Fold().Bytes == 0 {
		t.Fatal("a NoMarkov pool serves unfolded")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	serial := wb.NewBriefer(m, v, beam, 0)
	for i, p := range pages[:3] {
		status, body, err := postBrief(ts.URL, p.HTML)
		if err != nil || status != http.StatusOK {
			t.Fatalf("page %d: status %d err %v", i, status, err)
		}
		b, err := serial.BriefHTML(p.HTML)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(b)
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("page %d: served %s, serial path %s", i, body, want)
		}
	}
}

// TestPoolServesUnfoldableModelAsIs: a transformer-encoder model has no
// fold tables; a pool of one still serves it, unfolded.
func TestPoolServesUnfoldableModelAsIs(t *testing.T) {
	_, v, _ := trainedModel(t)
	tc := nn.TransformerConfig{Vocab: v.Size(), Dim: 12, Heads: 2, Layers: 1, FFDim: 24, MaxLen: 32, Segments: 2}
	enc := wb.NewBERTEncoder("bert", tc, false, rand.New(rand.NewSource(4)))
	bm := wb.NewJointWB("bert-serve", enc, v.Size(), wb.DefaultConfig())
	p, err := NewPool(bm, v, 1, Config{BeamWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Fold().Bytes != 0 {
		t.Fatalf("an unfoldable model reports fold tables: %+v", p.Fold())
	}
	r, _ := p.TryGet()
	if r.(*modelReplica).tiers[0].(*tierOf[float64]).model != wb.Model(bm) {
		t.Fatal("a pool of one over an unfoldable model must serve the model itself")
	}
	if _, err := NewPool(bm, v, 2, Config{BeamWidth: 2}); err == nil {
		t.Fatal("two replicas of a model with no fold tables were built")
	}
}
