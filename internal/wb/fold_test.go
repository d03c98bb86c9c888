package wb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// foldFixture is a briefly trained GloVe-encoder model over 500 generated
// pages. Its widths are odd on purpose: 4h = 44 gate columns end in a masked
// float32 tail, and the 13-wide embedding is no multiple of any vector.
func foldFixture(t testing.TB) (*JointWB, *textproc.Vocab, []*Instance) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: 7, PagesPerDomain: 50, SeenDomains: 10, UnseenDomains: 0})
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	insts := NewInstances(ds.Pages, v, 0)
	if len(insts) != 500 {
		t.Fatalf("fixture has %d pages, want 500", len(insts))
	}
	cfg := DefaultConfig()
	cfg.Hidden = 11
	cfg.Seed = 29
	enc := NewGloVeEncoder(tensor.Randn(v.Size(), 13, 0.1, rand.New(rand.NewSource(29))))
	m := NewJointWB("fold", enc, v.Size(), cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts[:12], tc)
	return m, v, insts
}

// briefing is what one page's briefing looks like to a client and to the
// cascade: the brief, and the decode confidence down to its bits.
type briefing struct {
	brief *Brief
	conf  string
}

// briefAll briefs every instance through MakeBriefBatch in consecutive
// batches whose sizes cycle through sizes: {1} is the batch-of-one path
// (ModelOf.Forward), {1…8} walks ForwardBatchEval over ragged batches.
func briefAll[T tensor.Float](m ModelOf[T], insts []*Instance, v *textproc.Vocab, beam int, sizes []int) []briefing {
	s := NewBatchScratchOf[T](v, beam, 8)
	out := make([]briefing, 0, len(insts))
	for lo, k := 0, 0; lo < len(insts); k++ {
		hi := min(lo+sizes[k%len(sizes)], len(insts))
		briefs, confs := MakeBriefBatch(m, insts[lo:hi], v, beam, s)
		for i, b := range briefs {
			out = append(out, briefing{b, fmt.Sprintf("%x/%x", confs[i].Margin, confs[i].Posterior)})
		}
		lo = hi
	}
	return out
}

// TestFoldIdentity is the model-level gate on the fold: over 500 generated
// pages, a model serving from its fold tables produces the briefs and the
// confidence BITS of the same model without them — for the float64 teacher
// and the float32 student, alone and in ragged batches, greedy and at two
// beam widths. (Under -tags wbdebug every folded forward here also
// re-derives a sampled row of each table.)
func TestFoldIdentity(t *testing.T) {
	m, v, insts := foldFixture(t)
	folded, err := FoldForServing(m, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	student, err := ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	foldedStudent, err := FoldStudent(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("teacher", func(t *testing.T) { checkFoldIdentity[float64](t, m, folded[0], insts, v) })
	t.Run("student", func(t *testing.T) { checkFoldIdentity[float32](t, student, foldedStudent, insts, v) })
}

func checkFoldIdentity[T tensor.Float](t *testing.T, plain, folded ModelOf[T], insts []*Instance, v *textproc.Vocab) {
	for _, path := range []struct {
		name  string
		sizes []int
	}{
		{"one", []int{1}},
		{"ragged", []int{1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		for _, beam := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/beam=%d", path.name, beam), func(t *testing.T) {
				want := briefAll(plain, insts, v, beam, path.sizes)
				got := briefAll(folded, insts, v, beam, path.sizes)
				for i := range want {
					if !reflect.DeepEqual(got[i].brief, want[i].brief) || got[i].conf != want[i].conf {
						t.Fatalf("page %d: folded %+v conf %s, unfolded %+v conf %s",
							i, got[i].brief, got[i].conf, want[i].brief, want[i].conf)
					}
				}
			})
		}
	}
}

// TestFoldedModelCannotBeTrained: a stale table — one that outlived the
// weights it was built from — must not be reachable. A folded model exposes
// no parameters, so a full training run over it steps nothing; its recording
// forwards are the plain model's (no table on a recording tape); and it
// shares no storage with the model it was folded from, so training THAT
// afterwards leaves the folded copy briefing exactly as before.
func TestFoldedModelCannotBeTrained(t *testing.T) {
	m, v, insts := foldFixture(t)
	insts = insts[:24]
	folded, err := FoldForServing(m, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := folded[0]
	if ps := f.Params(); len(ps) != 0 {
		t.Fatalf("folded model exposes %d trainable parameters", len(ps))
	}
	for _, p := range m.Params() {
		for _, q := range f.m.Params() {
			if &p.Value.Data[0] == &q.Value.Data[0] {
				t.Fatalf("folded copy aliases the source model's %s", p.Name)
			}
		}
	}
	const beam = 4
	before := briefAll[float64](m, insts, v, beam, []int{1})

	tc := DefaultTrainConfig()
	tc.Epochs = 1
	TrainModel(f, insts, tc) // records through the plain forward, steps nothing
	TrainModel(m, insts, tc) // moves the source model's weights, not the copy's

	if after := briefAll[float64](m, insts, v, beam, []int{1}); reflect.DeepEqual(after, before) {
		t.Fatal("fixture too weak: an epoch of training did not change the source model's briefings")
	}
	for name, got := range map[string][]briefing{
		"one":    briefAll[float64](f, insts, v, beam, []int{1}),
		"ragged": briefAll[float64](folded[1], insts, v, beam, []int{3, 5}),
	} {
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: a folded copy's briefings moved after training", name)
		}
	}
}

// TestFoldTablesSharedAndSized: every copy of one FoldForServing call reads
// the same three tables and the same embedding matrix, and Bytes is the
// arithmetic wbsnap -info prints.
func TestFoldTablesSharedAndSized(t *testing.T) {
	_, v := testData(t, 2, 2)
	m := newTestJointWB(v, 3)
	folded, err := FoldForServing(m, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range folded[1:] {
		if f.Tables() != folded[0].Tables() {
			t.Fatalf("copy %d has its own fold tables", i+1)
		}
		if f.m.Enc.(*GloVeEncoder).Emb.Table.Value != folded[0].m.Enc.(*GloVeEncoder).Emb.Table.Value {
			t.Fatalf("copy %d has its own embedding matrix", i+1)
		}
	}
	tab := folded[0].Tables()
	if want := FoldTableBytes(v.Size(), m.Cfg.Hidden, 8); tab.Bytes() != want || want != int64(3*v.Size()*4*16*8) {
		t.Fatalf("teacher tables: %d bytes, want %d", tab.Bytes(), want)
	}
	s, err := FoldStudent(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := FoldTableBytes(v.Size(), m.Cfg.Hidden, 4); s.Tables().Bytes() != want {
		t.Fatalf("student tables: %d bytes, want %d", s.Tables().Bytes(), want)
	}
	// A table row is the projection the unfolded forward computes for that
	// token: spot-check the definition against nn directly.
	emb := m.Enc.(*GloVeEncoder).Emb
	if got, want := tab.ExtFwd, nn.InputTable(emb, m.ExtLSTM.Fwd); !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatal("ExtFwd is not InputTable(Emb, ExtLSTM.Fwd)")
	}
}
