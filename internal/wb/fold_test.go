package wb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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
// batches whose sizes cycle through sizes: {1} is the lone briefing, a batch
// of one, {1…8} walks ForwardBatchEval over ragged batches.
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
	folded, err := FoldForServing[float64](m)
	if err != nil {
		t.Fatal(err)
	}
	student, err := ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	foldedStudent, err := FoldForServing[float32](m)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("teacher", func(t *testing.T) { checkFoldIdentity[float64](t, m, folded, insts, v) })
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
	f, err := FoldForServing[float64](m)
	if err != nil {
		t.Fatal(err)
	}
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
		"ragged": briefAll[float64](f, insts, v, beam, []int{3, 5}),
	} {
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: a folded copy's briefings moved after training", name)
		}
	}
}

// TestFoldTablesSharedAndSized: Bytes is the arithmetic wbsnap -info prints,
// and a table is what its definition says. (That every replica of a pool
// generation reads the SAME tables is serve's TestPoolSharesFoldTables.)
func TestFoldTablesSharedAndSized(t *testing.T) {
	_, v := testData(t, 2, 2)
	m := newTestJointWB(v, 3)
	folded, err := FoldForServing[float64](m)
	if err != nil {
		t.Fatal(err)
	}
	tab := folded.Tables()
	if want := FoldTableBytes(v.Size(), m.Cfg.Hidden, 8); tab.Bytes() != want || want != int64(3*v.Size()*4*16*8) {
		t.Fatalf("teacher tables: %d bytes, want %d", tab.Bytes(), want)
	}
	s, err := FoldForServing[float32](m)
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

// TestFoldForServingPrivateCopy checks the two properties serve.Pool relies
// on: the serving copy briefs byte-identically to the model it came from,
// and every parameter of it — the embedding matrix included — is a private
// copy with equal values. (TestFoldedModelCannotBeTrained shows what the
// privacy buys.)
func TestFoldForServingPrivateCopy(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 51)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)

	f, err := FoldForServing[float64](m)
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range insts {
		want := MakeBrief(m, inst, v, 2)
		got := MakeBrief(f, inst, v, 2)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("instance %d: serving copy's brief diverges:\n orig %+v\n copy %+v", i, want, got)
		}
	}
	op, cp := m.Params(), f.m.Params()
	if len(op) != len(cp) {
		t.Fatalf("param count: orig %d, copy %d", len(op), len(cp))
	}
	for i := range op {
		if op[i].Value == cp[i].Value || &op[i].Value.Data[0] == &cp[i].Value.Data[0] {
			t.Fatalf("param %d (%s): the serving copy shares storage with the source model", i, op[i].Name)
		}
		if !reflect.DeepEqual(op[i].Value.Data, cp[i].Value.Data) {
			t.Fatalf("param %d (%s): copied values diverge", i, op[i].Name)
		}
	}
}

// BenchmarkFoldForServing: pool boot's model work per tier — one parameter
// copy and the fold tables, whatever the replica count.
func BenchmarkFoldForServing(b *testing.B) {
	_, v := testData(b, 2, 2)
	m := newTestJointWB(v, 42)
	for i := 0; i < b.N; i++ {
		if _, err := FoldForServing[float64](m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFoldedModelSharedConcurrent is the race proof of what serve.Pool does
// with a generation's models: ONE folded teacher and ONE folded student, read
// at once by several goroutines that each own nothing but a BatchScratchOf.
// Under -race (scripts/check.sh runs this package so) any write to the shared
// weights, tables or decoder view fails the run; with or without it, every
// brief and every confidence bit must equal the serial reference — the
// heap-tape Briefer for the teacher's briefs, the unfolded model on a single
// workspace for both tiers' briefs and confidences.
func TestFoldedModelSharedConcurrent(t *testing.T) {
	const workers, pages = 4, 8
	ds, err := corpus.Generate(corpus.Config{Seed: 3, PagesPerDomain: pages / 2, SeenDomains: 2, UnseenDomains: 0})
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	m := newTestJointWB(v, 7)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, NewInstances(ds.Pages, v, 0), tc)
	insts := make([]*Instance, len(ds.Pages))
	for i, p := range ds.Pages {
		insts[i] = InstanceFromHTML(p.HTML, v, 0)
	}
	if len(insts) < pages {
		t.Fatalf("fixture has %d pages, want at least %d", len(insts), pages)
	}

	teacher, err := FoldForServing[float64](m)
	if err != nil {
		t.Fatal(err)
	}
	plainStudent, err := ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	student, err := FoldForServing[float32](m)
	if err != nil {
		t.Fatal(err)
	}
	for _, beam := range []int{1, 4} {
		serial := NewBriefer(m, v, beam, 0)
		wantT := briefAll[float64](m, insts, v, beam, []int{1})
		for i, p := range ds.Pages {
			b, err := serial.BriefHTML(p.HTML)
			if err != nil || !reflect.DeepEqual(b, wantT[i].brief) {
				t.Fatalf("beam %d page %d: reference paths disagree: Briefer %+v (err %v), workspace %+v", beam, i, b, err, wantT[i].brief)
			}
		}
		wantS := briefAll[float32](plainStudent, insts, v, beam, []int{1})

		var wg sync.WaitGroup
		gotT, gotS := make([][]briefing, workers), make([][]briefing, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Alternate batch shapes across workers so batches of one
				// and wider lockstep forwards overlap on the shared models.
				sizes := [][]int{{1}, {3, 2}}[w%2]
				gotT[w] = briefAll[float64](teacher, insts, v, beam, sizes)
				gotS[w] = briefAll[float32](student, insts, v, beam, sizes)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			for i := range insts {
				if !reflect.DeepEqual(gotT[w][i], wantT[i]) {
					t.Fatalf("beam %d worker %d page %d: shared teacher %+v conf %s, serial %+v conf %s",
						beam, w, i, gotT[w][i].brief, gotT[w][i].conf, wantT[i].brief, wantT[i].conf)
				}
				if !reflect.DeepEqual(gotS[w][i], wantS[i]) {
					t.Fatalf("beam %d worker %d page %d: shared student %+v conf %s, serial %+v conf %s",
						beam, w, i, gotS[w][i].brief, gotS[w][i].conf, wantS[i].brief, wantS[i].conf)
				}
			}
		}
	}
}
