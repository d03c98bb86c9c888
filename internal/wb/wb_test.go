package wb

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/corpus"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// testData builds a small deterministic dataset with its vocabulary.
func testData(t testing.TB, domains, pages int) ([]*Instance, *textproc.Vocab) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: pages, SeenDomains: domains, UnseenDomains: 0})
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	return NewInstances(ds.Pages, v, 0), v
}

func smallGloVeEncoder(v *textproc.Vocab, dim int, seed int64) *GloVeEncoder {
	rng := rand.New(rand.NewSource(seed))
	return NewGloVeEncoder(tensor.Randn(v.Size(), dim, 0.1, rng))
}

func TestInstanceEncoding(t *testing.T) {
	insts, v := testData(t, 2, 2)
	inst := insts[0]
	if inst.NumTokens() != len(inst.IDs) || len(inst.IDs) != len(inst.Tags) {
		t.Fatal("parallel arrays")
	}
	if inst.NumSents() != len(inst.SentInfo) {
		t.Fatal("sentence arrays")
	}
	// TopicIn/TopicOut are shifted copies.
	if inst.TopicIn[0] != textproc.BosID {
		t.Fatal("TopicIn must start with BOS")
	}
	if inst.TopicOut[len(inst.TopicOut)-1] != textproc.EosID {
		t.Fatal("TopicOut must end with EOS")
	}
	if len(inst.TopicIn) != len(inst.TopicOut) {
		t.Fatal("decoder input/target length mismatch")
	}
	for i, id := range inst.TopicIn[1:] {
		if id != inst.TopicOut[i] {
			t.Fatal("TopicIn is not TopicOut shifted")
		}
	}
	// No unknown tokens in a vocab built from the same corpus.
	for _, id := range inst.IDs {
		if id == textproc.UnkID {
			t.Fatal("UNK in training instance")
		}
	}
	_ = v
}

func TestGloVeEncoderShapes(t *testing.T) {
	insts, v := testData(t, 1, 1)
	enc := smallGloVeEncoder(v, 12, 1)
	tp := ag.NewTape()
	tok, sent := enc.EncodeDoc(tp, insts[0])
	if tok.Rows() != insts[0].NumTokens() || tok.Cols() != 12 {
		t.Fatalf("token reps %dx%d", tok.Rows(), tok.Cols())
	}
	if sent.Rows() != insts[0].NumSents() || sent.Cols() != 12 {
		t.Fatalf("sentence reps %dx%d", sent.Rows(), sent.Cols())
	}
}

func TestMeanPoolMatrixRowsSumToOne(t *testing.T) {
	insts, _ := testData(t, 1, 1)
	m := meanPoolMatrix(ag.NewTape(), insts[0])
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, x := range m.Row(i) {
			s += x
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestBERTEncoderShapes(t *testing.T) {
	insts, v := testData(t, 1, 1)
	rng := rand.New(rand.NewSource(2))
	cfg := nn.TransformerConfig{Vocab: v.Size(), Dim: 12, Heads: 2, Layers: 1, FFDim: 24, MaxLen: 32, Segments: 2}
	enc := NewBERTEncoder("bert", cfg, true, rng)
	tp := ag.NewTape()
	tok, sent := enc.EncodeDoc(tp, insts[0])
	if tok.Rows() != insts[0].NumTokens() {
		t.Fatalf("token rows %d", tok.Rows())
	}
	if sent.Rows() != insts[0].NumSents() {
		t.Fatalf("sentence rows %d", sent.Rows())
	}
}

func TestSectionPredictorShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := NewSectionPredictor("sec", 8, rng)
	tp := ag.NewTape()
	sent := tp.Const(tensor.Randn(5, 8, 1, rng))
	logits := sp.Forward(tp, sent)
	if logits.Rows() != 5 || logits.Cols() != 1 {
		t.Fatalf("section logits %dx%d", logits.Rows(), logits.Cols())
	}
	loss := tp.BCELoss(logits, []int{1, 0, 1, 0, 1})
	tp.Backward(loss)
	for _, p := range sp.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("no grad to %s", p.Name)
		}
	}
	// Single-sentence documents must not panic.
	tp2 := ag.NewTape()
	one := sp.Forward(tp2, tp2.Const(tensor.Randn(1, 8, 1, rng)))
	if one.Rows() != 1 {
		t.Fatal("single sentence")
	}
}

func TestSectionPredictorNoMarkovAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sp := NewSectionPredictor("sec", 8, rng)
	tp := ag.NewTape()
	sent := tensor.Randn(4, 8, 1, rng)
	markov := sp.Forward(tp, tp.Const(sent))
	sp.NoMarkov = true
	indep := sp.Forward(tp, tp.Const(sent))
	if markov.Value.Equal(indep.Value, 1e-12) {
		t.Fatal("ablation flag has no effect")
	}
	// Param sets swap with the flag.
	if len(sp.Params()) != 2 { // Indep Linear: W + B
		t.Fatalf("NoMarkov params: %d", len(sp.Params()))
	}
	sp.NoMarkov = false
	if len(sp.Params()) != 2 { // two bilinears: W1.W + W2.W
		t.Fatalf("Markov params: %d", len(sp.Params()))
	}
	// The independent scorer must not see neighbours: changing sentence 0
	// cannot affect sentence 2's logit.
	sp.NoMarkov = true
	sent2 := sent.Clone()
	sent2.Set(0, 0, sent2.At(0, 0)+100)
	tp2 := ag.NewTape()
	a := sp.Forward(tp2, tp2.Const(sent))
	b := sp.Forward(tp2, tp2.Const(sent2))
	if a.Value.At(2, 0) != b.Value.At(2, 0) {
		t.Fatal("independent scorer leaked neighbour context")
	}
	// The Markov scorer DOES see neighbours: changing sentence 0 must
	// affect sentence 1's logit.
	sp.NoMarkov = false
	am := sp.Forward(tp2, tp2.Const(sent))
	bm := sp.Forward(tp2, tp2.Const(sent2))
	if am.Value.At(1, 0) == bm.Value.At(1, 0) {
		t.Fatal("Markov scorer ignored neighbour change")
	}
}

func newTestJointWB(v *textproc.Vocab, seed int64) *JointWB {
	enc := smallGloVeEncoder(v, 16, seed)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = seed
	return NewJointWB("jwb", enc, v.Size(), cfg)
}

func TestJointWBForwardShapes(t *testing.T) {
	insts, v := testData(t, 2, 2)
	m := newTestJointWB(v, 4)
	inst := insts[0]
	tp := ag.NewTape()
	out := m.Forward(tp, inst, Train)
	if out.TagLogits.Rows() != inst.NumTokens() || out.TagLogits.Cols() != 3 {
		t.Fatalf("tag logits %dx%d", out.TagLogits.Rows(), out.TagLogits.Cols())
	}
	if out.SecLogits.Rows() != inst.NumSents() {
		t.Fatalf("sec logits %d", out.SecLogits.Rows())
	}
	if out.TopicLogits.Rows() != len(inst.TopicIn) || out.TopicLogits.Cols() != v.Size() {
		t.Fatalf("topic logits %dx%d", out.TopicLogits.Rows(), out.TopicLogits.Cols())
	}
	if out.TokenH == nil || out.SentH == nil || out.TopicStates == nil || out.Memory == nil {
		t.Fatal("hidden representations must be exposed for distillation")
	}
	// Eval mode has no teacher-forced logits but still a decodable memory.
	tp2 := ag.NewTape()
	out2 := m.Forward(tp2, inst, Eval)
	if out2.TopicLogits != nil {
		t.Fatal("eval mode should not teacher-force")
	}
	if out2.Memory == nil || out2.Dec == nil {
		t.Fatal("eval mode must provide decode memory")
	}
}

func TestJointWBGradientsReachAllParts(t *testing.T) {
	insts, v := testData(t, 2, 1)
	m := newTestJointWB(v, 5)
	tp := ag.NewTape()
	out := m.Forward(tp, insts[0], Train)
	loss := Loss(tp, out, insts[0])
	tp.Backward(loss)
	zero := 0
	for _, p := range m.Params() {
		if p.Grad.MaxAbs() == 0 {
			zero++
			t.Logf("zero grad: %s", p.Name)
		}
	}
	// The embedding table legitimately has rows without gradient (unused
	// ids), but MaxAbs covers the whole table; every weight matrix used in
	// this forward pass must receive some gradient.
	if zero > 0 {
		t.Fatalf("%d parameters received no gradient", zero)
	}
}

func TestLossCombinesHeads(t *testing.T) {
	insts, v := testData(t, 1, 1)
	m := newTestJointWB(v, 6)
	tp := ag.NewTape()
	out := m.Forward(tp, insts[0], Train)
	full := Loss(tp, out, insts[0]).Value.Data[0]
	// Removing a head must reduce the loss sum.
	out.SecLogits = nil
	tp2 := ag.NewTape()
	out2 := m.Forward(tp2, insts[0], Train)
	out2.TopicLogits = nil
	out2.SecLogits = nil
	partial := Loss(tp2, out2, insts[0]).Value.Data[0]
	if partial >= full {
		t.Fatalf("partial loss %v should be below full %v", partial, full)
	}
}

func TestLossPanicsWithNoHeads(t *testing.T) {
	tp := ag.NewTape()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Loss(tp, &Output{}, nil)
}

// The end-to-end learnability check: Joint-WB must fit a small corpus —
// extraction F1, topic EM and section accuracy all far above chance.
func TestJointWBLearnsSmallCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	insts, v := testData(t, 3, 8)
	m := newTestJointWB(v, 7)
	tc := DefaultTrainConfig()
	tc.Epochs = 32
	losses := TrainModel(m, insts, tc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	prf := EvaluateExtraction(m, insts)
	if prf.F1 < 60 {
		t.Fatalf("extraction F1 %.1f too low; losses %v", prf.F1, losses)
	}
	em, rm := EvaluateTopics(m, insts, v, 4, 4)
	if em < 50 {
		t.Fatalf("topic EM %.1f too low", em)
	}
	if rm < em {
		t.Fatalf("RM %.1f must be at least EM %.1f", rm, em)
	}
	if acc := EvaluateSections(m, insts); acc < 75 {
		t.Fatalf("section accuracy %.1f too low", acc)
	}
}

func TestPredictTagsAndSections(t *testing.T) {
	insts, v := testData(t, 1, 1)
	m := newTestJointWB(v, 8)
	tp := ag.NewTape()
	out := m.Forward(tp, insts[0], Eval)
	tags := PredictTags(out)
	if len(tags) != insts[0].NumTokens() {
		t.Fatal("tag count")
	}
	for _, tag := range tags {
		if tag < 0 || tag > 2 {
			t.Fatalf("invalid tag %d", tag)
		}
	}
	secs := PredictSections(out)
	if len(secs) != insts[0].NumSents() {
		t.Fatal("section count")
	}
	for _, s := range secs {
		if s != 0 && s != 1 {
			t.Fatalf("invalid section flag %d", s)
		}
	}
}

func TestGenerateTopicGreedyAndBeam(t *testing.T) {
	insts, v := testData(t, 1, 1)
	m := newTestJointWB(v, 9)
	greedy := GenerateTopic(m, insts[0], 1, 4)
	beam := GenerateTopic(m, insts[0], 4, 4)
	if len(greedy) > 4 || len(beam) > 4 {
		t.Fatal("topic length cap violated")
	}
	for _, ids := range [][]int{greedy, beam} {
		for _, id := range ids {
			if id < 0 || id >= v.Size() {
				t.Fatalf("invalid token id %d", id)
			}
		}
	}
}

func TestMakeBriefStructure(t *testing.T) {
	insts, v := testData(t, 1, 2)
	m := newTestJointWB(v, 10)
	b := MakeBrief(m, insts[0], v, 2)
	if b == nil {
		t.Fatal("nil brief")
	}
	s := b.String()
	if !strings.Contains(s, "Topic:") || !strings.Contains(s, "Webpage Briefing") {
		t.Fatalf("brief rendering: %s", s)
	}
	if len(b.Sections) != insts[0].NumSents() {
		t.Fatal("sections missing from brief")
	}
}

func TestTrainModelDeterministic(t *testing.T) {
	insts, v := testData(t, 1, 2)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	m1 := newTestJointWB(v, 11)
	m2 := newTestJointWB(v, 11)
	l1 := TrainModel(m1, insts, tc)
	l2 := TrainModel(m2, insts, tc)
	if l1[0] != l2[0] {
		t.Fatalf("training not deterministic: %v vs %v", l1, l2)
	}
}

func BenchmarkJointWBForward(b *testing.B) {
	ds, _ := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 1, SeenDomains: 2, UnseenDomains: 0})
	v := corpus.BuildVocab(ds.Pages)
	insts := NewInstances(ds.Pages, v, 0)
	m := newTestJointWB(v, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp := ag.NewTape()
		m.Forward(tp, insts[i%len(insts)], Eval)
	}
}

func BenchmarkJointWBTrainStep(b *testing.B) {
	ds, _ := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 1, SeenDomains: 2, UnseenDomains: 0})
	v := corpus.BuildVocab(ds.Pages)
	insts := NewInstances(ds.Pages, v, 0)
	m := newTestJointWB(v, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst := insts[i%len(insts)]
		tp := ag.NewTape()
		out := m.Forward(tp, inst, Train)
		loss := Loss(tp, out, inst)
		tp.Backward(loss)
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		_ = loss
	}
}

func TestDevLossAndEarlyStopping(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	insts, v := testData(t, 2, 10)
	train, dev := insts[:16], insts[16:]
	m := newTestJointWB(v, 44)
	before := DevLoss(m, dev)
	tc := DefaultTrainConfig()
	tc.Epochs = 100 // far more than needed; early stopping must cut it short
	losses, epochs := TrainModelEarlyStop(m, train, dev, tc, 3)
	if epochs >= 100 {
		t.Fatalf("early stopping never triggered (%d epochs)", epochs)
	}
	if len(losses) != epochs {
		t.Fatalf("loss curve length %d != epochs %d", len(losses), epochs)
	}
	after := DevLoss(m, dev)
	if after >= before {
		t.Fatalf("dev loss did not improve: %v -> %v", before, after)
	}
}

func TestDevLossEmptySet(t *testing.T) {
	_, v := testData(t, 1, 1)
	m := newTestJointWB(v, 45)
	if DevLoss(m, nil) != 0 {
		t.Fatal("empty dev set should give 0")
	}
}

func TestTrainModelBatchAccumulation(t *testing.T) {
	insts, v := testData(t, 2, 4)
	// Batch training must still learn (loss decreases) and remain
	// deterministic for a fixed seed.
	run := func() []float64 {
		m := newTestJointWB(v, 46)
		tc := DefaultTrainConfig()
		tc.Epochs = 3
		tc.BatchSize = 4
		return TrainModel(m, insts, tc)
	}
	l1, l2 := run(), run()
	if l1[len(l1)-1] >= l1[0] {
		t.Fatalf("batched loss not decreasing: %v", l1)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("batched training not deterministic")
		}
	}
}

func TestParallelEvaluationMatchesSerialAndIsRaceFree(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 47)
	// Serial reference via per-instance forwards.
	var serialGen [][]string
	for _, inst := range insts {
		serialGen = append(serialGen, v.Tokens(GenerateTopic(m, inst, 2, 4)))
	}
	gen, _ := GeneratedTopics(m, insts, v, 2, 4)
	for i := range gen {
		if strings.Join(gen[i], " ") != strings.Join(serialGen[i], " ") {
			t.Fatalf("parallel decode diverges at %d: %v vs %v", i, gen[i], serialGen[i])
		}
	}
	// Extraction must also be stable across repeated parallel runs.
	a := EvaluateExtraction(m, insts)
	b := EvaluateExtraction(m, insts)
	if a != b {
		t.Fatalf("parallel evaluation not deterministic: %+v vs %+v", a, b)
	}
}

func TestInstanceFromHTMLPipeline(t *testing.T) {
	_, v := testData(t, 1, 1)
	html := `<html><body><nav><div>home about contact help</div></nav>
	<main><h1>book shopping here</h1><div>price : $ 42 . 13</div></main></body></html>`
	inst := InstanceFromHTML(html, v, 0)
	if inst.NumSents() != 3 {
		t.Fatalf("sentences: %d", inst.NumSents())
	}
	if inst.NumTokens() != len(inst.Tags) || inst.NumTokens() != len(inst.SentOf) {
		t.Fatal("parallel arrays")
	}
	// Known words resolve; unknown ones map to UNK without panicking.
	inst2 := InstanceFromHTML("<p>zzzunknownzzz</p>", v, 0)
	if inst2.NumSents() != 1 {
		t.Fatal("single unknown sentence")
	}
}

func TestInstanceFromSentencesTruncation(t *testing.T) {
	_, v := testData(t, 1, 1)
	sents := [][]string{{"home", "about"}, {"price", ":", "book"}}
	inst := InstanceFromSentences(sents, v, 4)
	if inst.NumTokens() != 4 {
		t.Fatalf("truncated to %d", inst.NumTokens())
	}
	if len(inst.SentInfo) != inst.SentOf[3]+1 {
		t.Fatal("sentence labels inconsistent after truncation")
	}
}
