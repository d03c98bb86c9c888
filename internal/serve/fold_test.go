package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"webbrief/internal/wb"
)

// TestPoolSharesFoldTables: a pool generation serves the teacher it was
// handed, not a copy of it, builds its student once, and every replica reads
// those two models — the same pointers, the same tables, not equal copies —
// while each replica's workspaces are its own; and a second pool over a
// second teacher (what a hot reload loads) has models and tables of its own.
func TestPoolSharesFoldTables(t *testing.T) {
	m, v, _ := trainedModel(t)
	m.Cfg.BeamSize = 2
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
	cfg := Config{Cascade: true}
	handed := folded(t, m)
	p1, err := NewPool(handed, v, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	teacher, student := tiers(p1)
	if teacher != handed {
		t.Fatal("the pool serves a copy of the teacher it was handed")
	}
	if got, want := p1.Fold().Bytes, teacher.Tables().Bytes()+student.Tables().Bytes(); got != want || want == 0 {
		t.Fatalf("Fold().Bytes = %d, the two tiers' tables hold %d", got, want)
	}
	if p1.Fold().Built <= 0 {
		t.Fatalf("Fold().Built = %v, want the time the pool's models took", p1.Fold().Built)
	}
	p2, err := NewPool(folded(t, m), v, 3, cfg)
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
	m.Cfg.BeamSize = beam
	srv, err := New(m, v, Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
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
