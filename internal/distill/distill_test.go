package distill

import (
	"math"
	"math/rand"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/baselines"
	"webbrief/internal/corpus"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// buildWorld creates a dataset with seen+unseen domains, a shared vocab over
// everything, and instance sets.
func buildWorld(t testing.TB, seen, unseen, pages int) (ds *corpus.Dataset, v *textproc.Vocab, seenInsts, unseenInsts, allInsts []*wb.Instance) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: pages, SeenDomains: seen, UnseenDomains: unseen})
	if err != nil {
		t.Fatal(err)
	}
	v = corpus.BuildVocab(ds.Pages)
	seenInsts = wb.NewInstances(ds.PagesOf(ds.IsSeen), v, 0)
	unseenInsts = wb.NewInstances(ds.PagesOf(func(d string) bool { return !ds.IsSeen(d) }), v, 0)
	allInsts = wb.NewInstances(ds.Pages, v, 0)
	return ds, v, seenInsts, unseenInsts, allInsts
}

func gloveEnc(v *textproc.Vocab, dim int, seed int64) *wb.GloVeEncoder {
	rng := rand.New(rand.NewSource(seed))
	return wb.NewGloVeEncoder(tensor.Randn(v.Size(), dim, 0.1, rng))
}

func seenTopicIDs(ds *corpus.Dataset, v *textproc.Vocab) [][]int {
	var topics [][]string
	for _, name := range ds.Seen {
		topics = append(topics, corpus.DomainByName(name).Topic)
	}
	return TopicIDs(topics, v)
}

func TestBuildTopicKnowledge(t *testing.T) {
	ds, v, _, _, _ := buildWorld(t, 3, 1, 1)
	enc := gloveEnc(v, 12, 1)
	tk := buildTopicKnowledge(enc, seenTopicIDs(ds, v))
	if tk.Embeds.Rows != 3 || tk.Embeds.Cols != 12 {
		t.Fatalf("topic knowledge shape %dx%d", tk.Embeds.Rows, tk.Embeds.Cols)
	}
	// The embedding of a topic must be the mean of its token vectors.
	topic := corpus.DomainByName(ds.Seen[0]).Topic
	want := make([]float64, 12)
	for _, tok := range topic {
		row := enc.Emb.Table.Value.Row(v.ID(tok))
		for j, x := range row {
			want[j] += x
		}
	}
	for j := range want {
		want[j] /= float64(len(topic))
		if math.Abs(tk.Embeds.At(0, j)-want[j]) > 1e-12 {
			t.Fatalf("topic embed mismatch at %d", j)
		}
	}
}

func TestDistillLossTermsRespectSwitches(t *testing.T) {
	ds, v, seenInsts, _, _ := buildWorld(t, 2, 1, 2)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 12, 1), v.Size(), wb.Config{Hidden: 8, TopicLen: 4, Seed: 1})
	topics := seenTopicIDs(ds, v)

	mk := func(cfg Config) float64 {
		student := baselines.NewSingleGenerator("stud", gloveEnc(v, 12, 2), v.Size(), 8, false, 2)
		d := New(teacher, student, TaskTopic, teacher.Enc, topics, cfg)
		tp := ag.NewTape()
		return d.LossOn(tp, seenInsts[0]).Value.Data[0]
	}
	full := DefaultConfig()
	idOnly := DefaultConfig()
	idOnly.UseUD = false
	udOnly := DefaultConfig()
	udOnly.UseID = false
	hardOnly := DefaultConfig()
	hardOnly.UseID = false
	hardOnly.UseUD = false

	lFull, lID, lUD, lHard := mk(full), mk(idOnly), mk(udOnly), mk(hardOnly)
	if !(lFull > lID && lFull > lUD && lID > lHard && lUD > lHard) {
		t.Fatalf("loss term accounting wrong: full=%v id=%v ud=%v hard=%v", lFull, lID, lUD, lHard)
	}
}

func TestDistillNoTermsPanics(t *testing.T) {
	ds, v, seenInsts, _, _ := buildWorld(t, 2, 1, 1)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 12, 1), v.Size(), wb.Config{Hidden: 8, TopicLen: 4, Seed: 1})
	cfg := DefaultConfig()
	cfg.UseID, cfg.UseUD, cfg.HardLoss = false, false, false
	student := baselines.NewSingleGenerator("stud", gloveEnc(v, 12, 2), v.Size(), 8, false, 2)
	d := New(teacher, student, TaskTopic, teacher.Enc, seenTopicIDs(ds, v), cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with no loss terms")
		}
	}()
	d.LossOn(ag.NewTape(), seenInsts[0])
}

func TestDistillGradReachesStudentNotTeacher(t *testing.T) {
	ds, v, seenInsts, _, _ := buildWorld(t, 2, 1, 1)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 12, 1), v.Size(), wb.Config{Hidden: 8, TopicLen: 4, Seed: 1})
	student := baselines.NewSingleExtractor("stud", gloveEnc(v, 12, 2), v.Size(), 8, false, false, 2)
	d := New(teacher, student, TaskAttr, teacher.Enc, seenTopicIDs(ds, v), DefaultConfig())
	tp := ag.NewTape()
	loss := d.LossOn(tp, seenInsts[0])
	tp.Backward(loss)
	studentTouched := false
	for _, p := range student.Params() {
		if p.Grad.MaxAbs() > 0 {
			studentTouched = true
		}
	}
	if !studentTouched {
		t.Fatal("no gradient reached the student")
	}
	for _, p := range teacher.Params() {
		if p.Grad.MaxAbs() != 0 {
			t.Fatalf("teacher parameter %s received gradient — teacher must stay frozen", p.Name)
		}
	}
	// The distillation projections must also train.
	for _, p := range d.projParams() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("no gradient to projection %s", p.Name)
		}
	}
}

func TestUDTemperatureSoftensTargets(t *testing.T) {
	// Directly verify the γ² scaling and softened teacher distribution.
	ds, v, seenInsts, _, _ := buildWorld(t, 2, 1, 1)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 12, 1), v.Size(), wb.Config{Hidden: 8, TopicLen: 4, Seed: 1})
	student := baselines.NewSingleExtractor("stud", gloveEnc(v, 12, 2), v.Size(), 8, false, false, 2)
	cfgLo := DefaultConfig()
	cfgLo.Gamma = 1
	cfgLo.UseID = false
	cfgLo.HardLoss = false
	cfgHi := cfgLo
	cfgHi.Gamma = 4
	dLo := New(teacher, student, TaskAttr, teacher.Enc, seenTopicIDs(ds, v), cfgLo)
	dHi := New(teacher, student, TaskAttr, teacher.Enc, seenTopicIDs(ds, v), cfgHi)
	lLo := dLo.LossOn(ag.NewTape(), seenInsts[0]).Value.Data[0]
	lHi := dHi.LossOn(ag.NewTape(), seenInsts[0]).Value.Data[0]
	if lLo <= 0 || lHi <= 0 {
		t.Fatalf("UD losses must be positive: %v %v", lLo, lHi)
	}
	if lLo == lHi {
		t.Fatal("temperature had no effect")
	}
}

// End-to-end Dual-Distill: teacher trained on seen domains performs poorly
// on unseen ones; the distilled student must close most of that gap while
// staying reasonable on seen domains — the headline result of Table IV.
func TestDualDistillAdaptsToUnseenDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds, v, seenInsts, unseenInsts, allInsts := buildWorld(t, 3, 2, 6)

	teacher := wb.NewJointWB("teacher", gloveEnc(v, 16, 1), v.Size(), wb.Config{Hidden: 16, Dropout: 0.2, TopicLen: 4, Seed: 1})
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 40
	wb.TrainModel(teacher, seenInsts, tc)

	teacherSeenEM, _ := wb.EvaluateTopics(teacher, seenInsts, v, 1, 4)
	teacherUnseenEM, _ := wb.EvaluateTopics(teacher, unseenInsts, v, 1, 4)
	if teacherSeenEM < 60 {
		t.Fatalf("teacher failed to learn seen domains: EM %.1f", teacherSeenEM)
	}
	if teacherUnseenEM >= teacherSeenEM {
		t.Fatalf("unseen domains should be harder for the teacher: seen %.1f unseen %.1f", teacherSeenEM, teacherUnseenEM)
	}

	student := baselines.NewSingleGenerator("student", gloveEnc(v, 16, 7), v.Size(), 16, false, 7)
	d := New(teacher, student, TaskTopic, teacher.Enc, seenTopicIDs(ds, v), DefaultConfig())
	dtc := wb.DefaultTrainConfig()
	dtc.Epochs = 25
	losses := d.Train(allInsts, dtc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("distillation loss not decreasing: %v", losses)
	}

	studentUnseenEM, _ := wb.EvaluateTopics(student, unseenInsts, v, 1, 4)
	if studentUnseenEM <= teacherUnseenEM {
		t.Fatalf("distilled student must beat the teacher on unseen domains: teacher %.1f student %.1f",
			teacherUnseenEM, studentUnseenEM)
	}
}

func TestTriDistillJointStudent(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds, v, seenInsts, _, allInsts := buildWorld(t, 2, 1, 6)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 16, 1), v.Size(), wb.Config{Hidden: 16, Dropout: 0.2, TopicLen: 4, Seed: 1})
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 20
	wb.TrainModel(teacher, seenInsts, tc)

	student := baselines.NewJoint(baselines.ExchangeNone, gloveEnc(v, 16, 8), v.Size(), 16, 8)
	d := New(teacher, student, TaskJoint, teacher.Enc, seenTopicIDs(ds, v), DefaultConfig())
	dtc := wb.DefaultTrainConfig()
	dtc.Epochs = 25
	losses := d.Train(allInsts, dtc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("Tri-Distill loss not decreasing: %v", losses)
	}
	// The joint student must have learned something on both tasks.
	prf := wb.EvaluateExtraction(student, allInsts)
	em, _ := wb.EvaluateTopics(student, allInsts, v, 1, 4)
	if prf.F1 < 30 || em < 30 {
		t.Fatalf("Tri-Distill student too weak: F1 %.1f EM %.1f", prf.F1, em)
	}
}

func TestWithPredictedTopics(t *testing.T) {
	_, v, seenInsts, _, _ := buildWorld(t, 2, 1, 1)
	gen := baselines.NewSingleGenerator("g", gloveEnc(v, 12, 3), v.Size(), 8, false, 3)
	piped := WithPredictedTopics(seenInsts, gen, 1, 4)
	if len(piped) != len(seenInsts) {
		t.Fatal("instance count changed")
	}
	for i, p := range piped {
		if p.TopicIn[0] != textproc.BosID {
			t.Fatal("piped TopicIn must start with BOS")
		}
		if p.TopicOut[len(p.TopicOut)-1] != textproc.EosID {
			t.Fatal("piped TopicOut must end with EOS")
		}
		if len(p.TopicIn) < 2 {
			t.Fatal("piped topic must be non-empty")
		}
		// Original instances untouched.
		if &seenInsts[i].TopicIn[0] == &p.TopicIn[0] {
			t.Fatal("WithPredictedTopics must not alias originals")
		}
	}
}

func TestTopicIDs(t *testing.T) {
	v := textproc.NewVocab()
	v.Add("book")
	v.Add("shop")
	ids := TopicIDs([][]string{{"book", "shop"}, {"unknown", "book"}}, v)
	if ids[0][0] != v.ID("book") || ids[1][0] != textproc.UnkID {
		t.Fatalf("TopicIDs: %v", ids)
	}
}

// Property: the total distillation loss decomposes additively — for any
// instance, loss(full) == loss(hard-only) + loss(ID-only, no hard) +
// loss(UD-only, no hard) within float tolerance, because the terms are
// independent summands.
func TestDistillLossDecomposition(t *testing.T) {
	ds, v, seenInsts, _, _ := buildWorld(t, 2, 1, 2)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 12, 1), v.Size(), wb.Config{Hidden: 8, TopicLen: 4, Seed: 1})
	topics := seenTopicIDs(ds, v)
	loss := func(hard, id, ud bool) float64 {
		cfg := DefaultConfig()
		cfg.HardLoss, cfg.UseID, cfg.UseUD = hard, id, ud
		student := baselines.NewSingleGenerator("stud", gloveEnc(v, 12, 2), v.Size(), 8, false, 2)
		d := New(teacher, student, TaskTopic, teacher.Enc, topics, cfg)
		return d.LossOn(ag.NewTape(), seenInsts[0]).Value.Data[0]
	}
	full := loss(true, true, true)
	parts := loss(true, false, false) + loss(false, true, false) + loss(false, false, true)
	if math.Abs(full-parts) > 1e-9*math.Max(1, math.Abs(full)) {
		t.Fatalf("loss not additive: full=%v parts=%v", full, parts)
	}
}

// The γ² scaling (per [17]) must hold exactly: doubling γ with UD-only loss
// scales the loss by the temperature-softened KL at the new temperature
// times the new γ² — verify the implementation multiplies by SoftWeight·γ².
func TestUDLossGammaSquaredScaling(t *testing.T) {
	ds, v, seenInsts, _, _ := buildWorld(t, 2, 1, 1)
	teacher := wb.NewJointWB("teacher", gloveEnc(v, 12, 1), v.Size(), wb.Config{Hidden: 8, TopicLen: 4, Seed: 1})
	topics := seenTopicIDs(ds, v)
	// With γ=1 the softening is the identity, so the loss must equal
	// SoftWeight times the plain KL; doubling SoftWeight doubles it.
	mk := func(soft float64) float64 {
		cfg := DefaultConfig()
		cfg.HardLoss, cfg.UseID = false, false
		cfg.Gamma = 1
		cfg.SoftWeight = soft
		student := baselines.NewSingleGenerator("stud", gloveEnc(v, 12, 2), v.Size(), 8, false, 2)
		d := New(teacher, student, TaskTopic, teacher.Enc, topics, cfg)
		return d.LossOn(ag.NewTape(), seenInsts[0]).Value.Data[0]
	}
	a, b := mk(0.25), mk(0.5)
	if math.Abs(b-2*a) > 1e-9*math.Max(1, b) {
		t.Fatalf("SoftWeight scaling broken: %v vs 2×%v", b, a)
	}
}
