package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/nn"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// nearTieFixture is internal/wb's golden model and the corpus pages of its
// golden page set, as HTML.
type nearTieFixture struct {
	disk  []byte
	v     *textproc.Vocab
	pages []*corpus.Page
}

func loadNearTieFixture(t *testing.T) nearTieFixture {
	t.Helper()
	disk, err := os.ReadFile(filepath.Join("..", "wb", "testdata", "model-golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := wb.DecodeSnapshot(disk)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := corpus.Generate(corpus.Config{Seed: 11, PagesPerDomain: 4, SeenDomains: 2, UnseenDomains: 2})
	if err != nil {
		t.Fatal(err)
	}
	return nearTieFixture{disk: disk, v: v, pages: ds.Pages}
}

// model decodes a fresh copy of the golden model.
func (f nearTieFixture) model(t *testing.T) *wb.JointWB {
	t.Helper()
	m, _, err := wb.DecodeSnapshot(f.disk)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// briefOn briefs inst on m as a batch of one and returns the brief, its
// output (live until the scratch's next use) and every decision's gap, per
// kind, in order.
func briefOn[T float32 | float64](m wb.ModelOf[T], inst *wb.Instance, v *textproc.Vocab, beam int) (*wb.Brief, *wb.OutputOf[T], map[nn.GapKind][]float64) {
	all := map[nn.GapKind][]float64{}
	defer nn.TraceGaps(func(k nn.GapKind, gap float64) { all[k] = append(all[k], gap) })()
	s := wb.NewBatchScratchOf[T](v, beam, 1)
	briefs, outs := wb.ExtractBriefBatch(m, []*wb.Instance{inst}, v, s)
	wb.DecodeTopicBatch(outs, v, beam, s, briefs)
	return briefs[0], outs[0], all
}

// studentGaps are inst's decision gaps on m's folded float32 student.
func studentGaps(t *testing.T, m *wb.JointWB, inst *wb.Instance, v *textproc.Vocab) nn.Gaps {
	t.Helper()
	student, err := wb.FoldForServing[float32](m)
	if err != nil {
		t.Fatal(err)
	}
	_, out, _ := briefOn[float32](student, inst, v, m.Cfg.BeamSize)
	return out.Gaps
}

// argmin returns the index of xs's smallest value.
func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// forceTagTie moves the tag bias of the runner-up tag at the page's thinnest
// tag decision up by that decision's gap: the two tags tie.
func forceTagTie(t *testing.T, m *wb.JointWB, inst *wb.Instance, v *textproc.Vocab) {
	_, out, _ := briefOn[float64](m, inst, v, m.Cfg.BeamSize)
	rows := out.TagLogits.Value
	gaps := make([]float64, rows.Rows)
	for i := range gaps {
		_, gaps[i] = nn.ArgmaxGap(rows.Row(i))
	}
	row := rows.Row(argmin(gaps))
	top, gap := nn.ArgmaxGap(row)
	runnerUp := -1
	for j, x := range row {
		if j != top && (runnerUp < 0 || x > row[runnerUp]) {
			runnerUp = j
		}
	}
	m.TagW.B.Value.Data[runnerUp] += gap
}

// forceSectionTie moves one section-predictor weight so that the page's
// thinnest section logit reaches 0: the predictor has no bias, and a logit
// is linear in each W1 and W2 entry, so secant steps along the steepest
// entry's slope, measured by a unit move, land on the threshold.
func forceSectionTie(t *testing.T, m *wb.JointWB, inst *wb.Instance, v *textproc.Vocab) {
	logits := func() []float64 {
		_, out, _ := briefOn[float64](m, inst, v, m.Cfg.BeamSize)
		return slices.Clone(out.SecLogits.Value.Data)
	}
	l0 := logits()
	abs := make([]float64, len(l0))
	for i, x := range l0 {
		abs[i] = math.Abs(x)
	}
	j := argmin(abs)
	var steepest []float64
	var at int
	var slope float64
	for _, w := range [][]float64{m.Sec.W1.W.Value.Data, m.Sec.W2.W.Value.Data} {
		for e := range w {
			w[e]++
			if d := logits()[j] - l0[j]; math.Abs(d) > math.Abs(slope) {
				steepest, at, slope = w, e, d
			}
			w[e]--
		}
	}
	if slope == 0 {
		t.Fatal("no section weight moves the thinnest section logit")
	}
	l := l0[j]
	for i := 0; i < 8 && !(math.Abs(l) < wb.StudentBounds()[nn.GapSection]/100); i++ {
		steepest[at] -= l / slope
		l = logits()[j]
	}
}

// forceGreedyTie lowers the decoder's output bias of the token the first
// decoding pass picks at its thinnest step by that step's gap: the token
// ties with the runner-up. The pass's tokens come from a step loop of its
// own — attend, step the cell, take the argmax of the output logits.
func forceGreedyTie(t *testing.T, m *wb.JointWB, inst *wb.Instance, v *textproc.Vocab) {
	s := wb.NewBatchScratchOf[float64](v, m.Cfg.BeamSize, 1)
	_, outs := wb.ExtractBriefBatch[float64](m, []*wb.Instance{inst}, v, s)
	tp, d := s.Tape, m.Dec
	mem1 := m.MemPr1.Forward(tp, outs[0].SentH)
	st, prev := d.Cell.ZeroState(tp), textproc.BosID
	var toks []int // the first pass's argmax per step, EOS included
	for i := 0; i < m.Cfg.TopicLen && prev != textproc.EosID; i++ {
		ctx := tp.MatMul(d.Att.Attention(tp, st.H, mem1), mem1)
		st = d.Cell.Step(tp, tp.ConcatCols2(d.Emb.Forward(tp, []int{prev}), ctx), st)
		prev, _ = nn.ArgmaxGap(d.Out.ForwardCat(tp, st.H, ctx).Value.Row(0))
		toks = append(toks, prev)
	}
	_, _, all := briefOn[float64](m, inst, v, m.Cfg.BeamSize)
	k := argmin(all[nn.GapGreedy])
	m.Dec.Out.B.Value.Data[toks[k]] -= all[nn.GapGreedy][k]
}

// forceFinalTie raises the decoder's output bias of one token until the
// topic the beam ranks first changes, bisecting to the last bias at which
// it has not: there the final ranking is a near-tie. It takes the first
// token, in id order, whose bisection ends on a final-ranking tie rather
// than on some other decision.
func forceFinalTie(t *testing.T, m *wb.JointWB, inst *wb.Instance, v *textproc.Vocab) {
	beam := m.Cfg.BeamSize
	b0, _, _ := briefOn[float64](m, inst, v, beam)
	bias := m.Dec.Out.B.Value.Data
	for tok := range bias {
		orig := bias[tok]
		changed := func(d float64) bool {
			bias[tok] = orig + d
			b, _, _ := briefOn[float64](m, inst, v, beam)
			return !slices.Equal(b.Topic, b0.Topic)
		}
		hi := 1.0
		for hi < 64 && !changed(hi) {
			hi *= 2
		}
		if hi >= 64 {
			bias[tok] = orig
			continue
		}
		lo := 0.0
		for i := 0; i < 60; i++ {
			if mid := (lo + hi) / 2; changed(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		bias[tok] = orig + lo
		_, out, _ := briefOn[float64](m, inst, v, beam)
		if out.Gaps[nn.GapFinal] < wb.StudentBounds()[nn.GapFinal]/4 && argmin(out.Gaps[:]) == int(nn.GapFinal) {
			return
		}
		bias[tok] = orig
	}
	t.Fatal("no output bias ends on a final-ranking tie")
}

// TestCascadeEscalatesForcedNearTies forces, on a copy of the golden model,
// one decision of each kind on a page the guard passes into a near-tie by
// moving one parameter (a bias where the layer has one). The student's gap
// of that kind must fall within its bound, the page must escalate, and the
// cascade must serve the perturbed teacher's bytes. The unperturbed page is
// the control: answered by the student, with the teacher's bytes.
func TestCascadeEscalatesForcedNearTies(t *testing.T) {
	f := loadNearTieFixture(t)
	bounds := wb.StudentBounds()
	m0 := f.model(t)
	var html string
	var inst *wb.Instance
	for _, p := range f.pages {
		in := wb.InstanceFromHTML(p.HTML, f.v, wb.MaxPageTokens)
		if !studentGaps(t, m0, in, f.v).Within(bounds) {
			html, inst = p.HTML, in
			break
		}
	}
	if inst == nil {
		t.Fatal("the guard escalates every golden page: no page to force a tie on")
	}

	serveOne := func(t *testing.T, m *wb.JointWB) (student, teacher int64) {
		t.Helper()
		cfg := Config{Cascade: true}
		pool, err := NewPool(folded(t, m), f.v, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewFromPool(pool, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		status, body, err := postBrief(ts.URL, html)
		if err != nil || status != http.StatusOK {
			t.Fatalf("status %d err %v", status, err)
		}
		want := serialWire(t, wb.NewBriefer(m, f.v, m.Cfg.BeamSize, 0), []string{html})[0]
		if !bytes.Equal(body, want) {
			t.Fatalf("served %s, the teacher briefs %s", body, want)
		}
		return countOf(srv.metrics.CascadeRequests, CascadeStudent), countOf(srv.metrics.CascadeRequests, CascadeTeacher)
	}
	if s, te := serveOne(t, m0); s != 1 || te != 0 {
		t.Fatalf("control page: %d student / %d teacher answers, want the student's", s, te)
	}

	for _, tc := range []struct {
		kind  nn.GapKind
		force func(*testing.T, *wb.JointWB, *wb.Instance, *textproc.Vocab)
	}{
		{nn.GapTag, forceTagTie},
		{nn.GapSection, forceSectionTie},
		{nn.GapGreedy, forceGreedyTie},
		{nn.GapFinal, forceFinalTie},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			m := f.model(t)
			tc.force(t, m, inst, f.v)
			g := studentGaps(t, m, inst, f.v)
			if !(g[tc.kind] <= bounds[tc.kind]) {
				t.Fatalf("student %s gap %v after the perturbation, bound %v (gaps %v)", tc.kind, g[tc.kind], bounds[tc.kind], g)
			}
			if s, te := serveOne(t, m); s != 0 || te != 1 {
				t.Fatalf("%d student / %d teacher answers, want the teacher's", s, te)
			}
			t.Logf("student gaps %v", g)
		})
	}
}
