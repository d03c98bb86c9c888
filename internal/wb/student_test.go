package wb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// studentFromTeacher converts a trained teacher, failing the test on error —
// or if any student parameter came out with a gradient buffer: the student
// never trains, and a Grad per weight would double its resident size.
func studentFromTeacher(t testing.TB, m *JointWB) *JointWB32 {
	t.Helper()
	st, err := ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Params() {
		if p.Grad != nil {
			t.Fatalf("student parameter %s carries a gradient buffer", p.Name)
		}
	}
	return st
}

// TestConvertJointWBRequiresGloVe: the float32 student only exists for the
// GloVe regime; transformer-encoder models must be refused, not mangled.
func TestConvertJointWBRequiresGloVe(t *testing.T) {
	_, v := testData(t, 1, 1)
	rng := rand.New(rand.NewSource(4))
	cfg := nn.TransformerConfig{Vocab: v.Size(), Dim: 12, Heads: 2, Layers: 1, FFDim: 24, MaxLen: 32, Segments: 2}
	enc := NewBERTEncoder("bert", cfg, false, rng)
	m := NewJointWB("Joint-WB", enc, v.Size(), DefaultConfig())
	if _, err := ConvertJointWB(m); err == nil {
		t.Fatal("BERT-encoder model converted to a float32 student")
	}
}

// TestStudentSecLogitsMatchTeacher: the section head runs no decode pass, so
// its student logits must track the teacher within the float32 kernel
// tier's error envelope on every instance — the end-to-end numerical
// accuracy contract for the encoder + BiLSTM + section predictor stack.
func TestStudentSecLogitsMatchTeacher(t *testing.T) {
	m, v, insts := trainedTestModel(t)
	_ = v
	st := studentFromTeacher(t, m)
	s64 := NewBatchScratchOf[float64](nil, 0, 0)
	s32 := NewBatchScratchOf[float32](nil, 0, 0)
	const tol = 1e-3 // |err| ≤ tol·(1+|logit|); generous vs the ~1e-5 observed
	for k := range insts {
		out := forwardEval(m, insts[k:k+1], s64)[0]
		out32 := forwardEval(st, insts[k:k+1], s32)[0]
		if out32.SecLogits.Rows() != out.SecLogits.Rows() {
			t.Fatalf("inst %d: section logit rows %d vs %d", k, out32.SecLogits.Rows(), out.SecLogits.Rows())
		}
		for i := 0; i < out32.SecLogits.Rows(); i++ {
			want := out.SecLogits.Value.At(i, 0)
			got := float64(out32.SecLogits.Value.At(i, 0))
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("inst %d sentence %d: student logit %g, teacher %g", k, i, got, want)
			}
		}
	}
}

// TestStudentExtractionQuality is the cascade quality gate: on the eval
// suite, the student-only extraction F1 must sit within epsilon of the
// teacher's. A float32 round-off that flips argmaxes at scale would trip
// this long before it trips the per-kernel tolerance tests.
func TestStudentExtractionQuality(t *testing.T) {
	m, v, insts := trainedTestModel(t)
	_ = v
	st := studentFromTeacher(t, m)
	s64 := NewBatchScratchOf[float64](nil, 0, 0)
	s32 := NewBatchScratchOf[float32](nil, 0, 0)
	gold := make([][]eval.Span, len(insts))
	pt := make([][]eval.Span, len(insts))
	ps := make([][]eval.Span, len(insts))
	for i, inst := range insts {
		gold[i] = eval.SpansFromBIO(inst.Tags)
		pt[i] = eval.SpansFromBIO(PredictTags(forwardEval(m, insts[i:i+1], s64)[0]))
		ps[i] = eval.SpansFromBIO(PredictTags(forwardEval(st, insts[i:i+1], s32)[0]))
	}
	teacher := eval.SpanPRF1(pt, gold)
	student := eval.SpanPRF1(ps, gold)
	const epsilon = 2.0 // F1 percentage points
	if math.Abs(student.F1-teacher.F1) > epsilon {
		t.Fatalf("student extraction F1 %.2f drifted more than %.1f points from teacher %.2f",
			student.F1, epsilon, teacher.F1)
	}
}

// TestStudentBatchMatchesSerial: the batched student path must brief
// identically to the heap-tape reference run page by page, and a member's
// brief and confidence must not depend on its batchmates (a batch of N vs N
// batches of one) — the same contract the float64 batch tier keeps.
func TestStudentBatchMatchesSerial(t *testing.T) {
	m, v, insts := trainedTestModel(t)
	st := studentFromTeacher(t, m)
	for _, width := range []int{1, 3} {
		oneScratch := NewBatchScratchOf[float32](v, width, 1)
		batchScratch := NewBatchScratchOf[float32](v, width, len(insts))
		gotBriefs, gotConfs := MakeBriefBatch(st, insts, v, width, batchScratch)
		for i, inst := range insts {
			if want := heapTapeBrief(st, inst, v, width); !reflect.DeepEqual(gotBriefs[i], want) {
				t.Fatalf("width %d inst %d: batched student brief diverges:\nbatch  %+v\nserial %+v",
					width, i, gotBriefs[i], want)
			}
			alone, aloneConfs := MakeBriefBatch(st, insts[i:i+1], v, width, oneScratch)
			if !reflect.DeepEqual(gotBriefs[i], alone[0]) || gotConfs[i] != aloneConfs[0] {
				t.Fatalf("width %d inst %d: in the batch %+v %+v, alone %+v %+v",
					width, i, gotBriefs[i], gotConfs[i], alone[0], aloneConfs[0])
			}
		}
	}
}

// BenchmarkCascadeTiers measures the two cascade tiers head to head as one
// dtype × scale grid over the generic entry points: the same instance
// briefed end to end (encode + topic decode) on the warm scratch fast path
// by the float64 teacher and by its float32 student — the same code, two
// instantiations. The f64/f32 ratio is the cascade's payoff per
// student-answered briefing.
//
// Two model scales bracket the cost regimes. toy-h16 is the unit-test
// configuration — so small that library transcendentals and per-step tape
// overhead dominate, and the float32 tier's bandwidth/register-width edge
// has nothing to bite on. paper-h108 is the configuration the source paper
// serves (GloVe d=50, Hidden=108), where the h² matmul work dominates and
// the float32 kernels' halved traffic and doubled register block pay off;
// that cell pair is the cascade's headline number.
func BenchmarkCascadeTiers(b *testing.B) {
	insts, v := testData(b, 1, 2)
	inst := insts[0]
	const beam = 4
	for _, sc := range []struct {
		name        string
		dim, hidden int
	}{
		{"toy-h16", 16, 16},
		{"paper-h108", 50, 108},
	} {
		enc := smallGloVeEncoder(v, sc.dim, 313)
		cfg := DefaultConfig()
		cfg.Hidden = sc.hidden
		cfg.Seed = 313
		m := NewJointWB("jwb", enc, v.Size(), cfg)
		b.Run("dtype=f64/scale="+sc.name, func(b *testing.B) { benchTier[float64](b, m, inst, v, beam) })
		b.Run("dtype=f32/scale="+sc.name, func(b *testing.B) { benchTier[float32](b, studentFromTeacher(b, m), inst, v, beam) })
	}
}

// benchTier is one cell of the BenchmarkCascadeTiers grid.
func benchTier[T tensor.Float](b *testing.B, m ModelOf[T], inst *Instance, v *textproc.Vocab, beam int) {
	one := []*Instance{inst}
	s := NewBatchScratchOf[T](v, beam, 1)
	MakeBriefBatch(m, one, v, beam, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MakeBriefBatch(m, one, v, beam, s)
	}
}

// TestAct64GatePreactivationsMatchLibm checks the float64 σ/tanh lanes on the
// numbers they exist for. It replays the token encoder's forward LSTM of
// BenchmarkCascadeTiers' paper-scale teacher over that benchmark's page with
// the library expressions written out — so every gate pre-activation and
// every cell state of the real recurrence passes through here — and requires
// tensor.SigmoidInto and tensor.TanhInto (the lanes, where the host has them
// and the probe confirmed them) to return the library's bits on each, and
// the model's own no-grad forward, which goes through the fused
// tensor.LSTMCellInto, to arrive at the same hidden states.
func TestAct64GatePreactivationsMatchLibm(t *testing.T) {
	insts, v := testData(t, 1, 2)
	inst := insts[0]
	cfg := DefaultConfig()
	cfg.Hidden = 108
	cfg.Seed = 313
	m := NewJointWB("jwb", smallGloVeEncoder(v, 50, 313), v.Size(), cfg)
	tp := ag.NewInferTapeOf[float64]()
	tok, _ := m.Enc.EncodeDoc(tp, inst)
	want := m.ExtLSTM.Forward(tp, tok).Value

	l, h := m.ExtLSTM.Fwd, cfg.Hidden
	in := tensor.New(tok.Rows(), 4*h)
	tensor.MatMulInto(in, tok.Value, l.Wx.Value)
	hPrev, c := tensor.New(1, h), make([]float64, h)
	pre, act, cTanh := tensor.New(1, 4*h), tensor.New(1, 4*h), tensor.New(1, h)
	sameBits := func(what string, step int, got, want []float64) {
		t.Helper()
		for j, w := range want {
			if math.Float64bits(got[j]) != math.Float64bits(w) {
				t.Fatalf("step %d %s[%d]: %x (%v), libm gives %x (%v)", step, what, j, math.Float64bits(got[j]), got[j], math.Float64bits(w), w)
			}
		}
	}
	checked := 0
	for step := 0; step < tok.Rows(); step++ {
		pre.Zero()
		tensor.MatMulInto(pre, hPrev, l.Wh.Value)
		libm := make([]float64, 4*h)
		for j, rec := range pre.Data {
			x := (in.Row(step)[j] + rec) + l.B.Value.Data[j]
			pre.Data[j] = x
			if j/h == 2 {
				libm[j] = math.Tanh(x)
			} else {
				libm[j] = 1 / (1 + math.Exp(-x))
			}
		}
		tensor.SigmoidInto(act, pre)
		sameBits("σ(input, forget gate)", step, act.Data[:2*h], libm[:2*h])
		sameBits("σ(output gate)", step, act.Data[3*h:], libm[3*h:])
		tensor.TanhInto(act, pre)
		sameBits("tanh(cell gate)", step, act.Data[2*h:3*h], libm[2*h:3*h])
		hLibm := make([]float64, h)
		for j := range c {
			c[j] = float64(libm[h+j]*c[j]) + float64(libm[j]*libm[2*h+j])
			hLibm[j] = libm[3*h+j] * math.Tanh(c[j])
		}
		tensor.TanhInto(cTanh, tensor.FromSlice(1, h, c))
		for j := range hLibm {
			cTanh.Data[j] *= libm[3*h+j]
		}
		sameBits("o·tanh(c)", step, cTanh.Data, hLibm)
		sameBits("model hidden state", step, want.Row(step)[:h], hLibm)
		copy(hPrev.Data, hLibm)
		checked += 5 * h
	}
	t.Logf("%d tokens, %d activations bit-equal to libm", tok.Rows(), checked)
}
