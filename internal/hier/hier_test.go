package hier

import (
	"math/rand"
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/corpus"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

func hierData(t testing.TB, domains, pages int) ([]*Instance, []*corpus.Page, *textproc.Vocab) {
	t.Helper()
	pgs := GenerateHierPages(domains, pages, 1)
	v := corpus.BuildVocab(pgs)
	v.Add("category")
	for _, q := range []string{"featured", "classic", "premium", "popular", "seasonal"} {
		v.Add(q)
	}
	return NewInstances(pgs, v), pgs, v
}

func enc(v *textproc.Vocab, seed int64) wb.DocEncoder {
	return wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(seed))))
}

func TestGeneratePageHierHasCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := corpus.GeneratePageHier(corpus.DomainByName("books"), 0, rng)
	attrs := p.Attributes()
	if len(attrs) != 5 {
		t.Fatalf("hier page should have 5 attributes (1 category + 4 detail), got %d", len(attrs))
	}
	cat := attrs[0]
	if cat.Label != "category" || cat.Level != 1 {
		t.Fatalf("first attribute should be the level-1 category: %+v", cat)
	}
	for _, a := range attrs[1:] {
		if a.Level != 0 {
			t.Fatalf("detail attribute with level %d: %+v", a.Level, a)
		}
	}
	// The round-trip alignment must still hold.
	got := corpus.ReparseFromHTML(p.HTML)
	if len(got) != len(p.Sentences) {
		t.Fatalf("reparse: %d sentences, want %d", len(got), len(p.Sentences))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], p.Sentences[i].Tokens) {
			t.Fatalf("sentence %d misaligned", i)
		}
	}
}

func TestHierInstanceSplitsLevels(t *testing.T) {
	insts, _, _ := hierData(t, 2, 1)
	inst := insts[0]
	if len(inst.Tags1) != len(inst.Tags2) || len(inst.Tags1) != inst.Base.NumTokens() {
		t.Fatal("tag arrays out of sync")
	}
	b1, b2 := 0, 0
	for i := range inst.Tags1 {
		if inst.Tags1[i] == corpus.TagB {
			b1++
		}
		if inst.Tags2[i] == corpus.TagB {
			b2++
		}
		if inst.Tags1[i] != corpus.TagO && inst.Tags2[i] != corpus.TagO {
			t.Fatal("token tagged at both levels")
		}
	}
	if b1 != 1 {
		t.Fatalf("level-1 B tags: %d, want 1 category", b1)
	}
	if b2 != 4 {
		t.Fatalf("level-2 B tags: %d, want 4 detail attributes", b2)
	}
}

func TestMultiLevelForwardShapes(t *testing.T) {
	insts, _, v := hierData(t, 2, 1)
	m := NewMultiLevel("ml", enc(v, 2), 8, true, 3)
	tp := ag.NewTape()
	l1, l2 := m.Forward(tp, insts[0], true)
	if l1.Rows() != insts[0].Base.NumTokens() || l1.Cols() != 3 {
		t.Fatalf("l1 shape %dx%d", l1.Rows(), l1.Cols())
	}
	if l2.Rows() != l1.Rows() || l2.Cols() != 3 {
		t.Fatalf("l2 shape %dx%d", l2.Rows(), l2.Cols())
	}
}

func TestMultiLevelGradFlow(t *testing.T) {
	insts, _, v := hierData(t, 2, 1)
	for _, combine := range []bool{true, false} {
		m := NewMultiLevel("ml", enc(v, 4), 8, combine, 5)
		tp := ag.NewTape()
		l1, l2 := m.Forward(tp, insts[0], true)
		loss := tp.AddScalars(tp.CrossEntropy(l1, insts[0].Tags1), tp.CrossEntropy(l2, insts[0].Tags2))
		tp.Backward(loss)
		for _, p := range m.Params() {
			if p.Grad.MaxAbs() == 0 {
				t.Fatalf("combine=%v: no grad to %s", combine, p.Name)
			}
		}
	}
}

func TestMultiLevelLearnsBothLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	insts, _, v := hierData(t, 3, 8)
	m := NewMultiLevel("ml", enc(v, 6), 16, true, 7)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 20
	losses := m.Train(insts, tc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss not decreasing: %v", losses)
	}
	l1, l2 := m.Evaluate(insts)
	if l1.F1 < 70 {
		t.Fatalf("level-1 (category) F1 %.1f too low", l1.F1)
	}
	if l2.F1 < 70 {
		t.Fatalf("level-2 (detail) F1 %.1f too low", l2.F1)
	}
}

func TestGenerateHierPagesDeterministic(t *testing.T) {
	a := GenerateHierPages(2, 2, 42)
	b := GenerateHierPages(2, 2, 42)
	if len(a) != 4 || len(b) != 4 {
		t.Fatal("page count")
	}
	for i := range a {
		if a[i].HTML != b[i].HTML {
			t.Fatal("not deterministic")
		}
	}
}
