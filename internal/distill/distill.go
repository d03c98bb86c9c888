// Package distill implements the paper's knowledge-distillation framework:
//
//   - Dual-Distill (§III-A): identification distillation L_ID — matching
//     teacher and student attention distributions over the topic phrase
//     matrix R of previously seen topics — plus understanding distillation
//     L_UD — temperature-softened KL between teacher and student output
//     distributions. Total loss L = hard + α·L_ID + γ²·L_UD.
//
//   - Tri-Distill (§III-B): one shared identification distillation and two
//     understanding distillations (attribute extraction + topic generation)
//     in a jointly distilled student:
//     L = hard + λ·L_ID + μ·L_UD^e + ν·γ²·L_UD^s.
//
//   - Pip-Distill (§IV-A7): a pipeline of two Dual-Distills where the first
//     student's generated topic is fed to the second student's attribute
//     extraction as prior knowledge.
//
// The teacher is frozen: its forward runs on a throwaway tape and only its
// values cross into the student's graph. The projection parameters of the
// distillation losses (W_R, W_AT, W_AS) are trained together with the
// student, matching the paper's "trainable parameters".
package distill

import (
	"fmt"
	"math/rand"
	"sync"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/opt"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// Task selects what a student is distilled to do.
type Task int

// Distillation tasks.
const (
	TaskAttr  Task = iota // key attribute extraction
	TaskTopic             // topic generation
	TaskJoint             // both jointly (Tri-Distill)
)

// Config holds the distillation hyperparameters of §IV-A5.
type Config struct {
	Alpha  float64 // Dual-Distill ID weight (paper: 0.1)
	Gamma  float64 // softmax temperature (paper: 2)
	Lambda float64 // Tri-Distill shared-ID weight (paper: 0.1)
	Mu     float64 // Tri-Distill attribute-UD weight (paper: 1)
	Nu     float64 // Tri-Distill topic-UD weight (paper: 2.25)
	// UseID / UseUD switch the loss terms for the "ID only" / "UD only"
	// ablations of Table IV.
	UseID bool
	UseUD bool
	// HardLoss includes the supervised loss on the distillation data,
	// following Hinton-style distillation where the soft loss is weighted
	// by γ² against the hard loss.
	HardLoss bool
	// SoftWeight balances the understanding distillation against the hard
	// loss (Hinton's weighted average of the two objectives). The KL term
	// is multiplied by SoftWeight·γ², so with γ=2 a SoftWeight of 0.15
	// gives an effective soft:hard ratio of 0.6 — low enough that the
	// student can overrule a confidently-wrong teacher on unseen domains
	// (the adaptation behaviour §I requires) while still absorbing the
	// teacher's knowledge everywhere else.
	SoftWeight float64
	// RepDim is the width of the topic phrase representations R.
	RepDim int
	Seed   int64
}

// DefaultConfig returns the paper's hyperparameters.
func DefaultConfig() Config {
	return Config{
		Alpha: 0.1, Gamma: 2, Lambda: 0.1, Mu: 1, Nu: 2.25,
		UseID: true, UseUD: true, HardLoss: true, SoftWeight: 0.15,
		RepDim: 16, Seed: 1,
	}
}

// TopicKnowledge carries the stored topics of the seen domains — the
// "representative knowledge of seen domains" the identification distillation
// is guided by. Embeds holds one row per seen topic: the mean of the topic
// tokens' embedding vectors taken from the pre-trained teacher.
type TopicKnowledge struct {
	Embeds *tensor.Matrix // r×dT
}

// buildTopicKnowledge extracts topic embeddings from the teacher's document
// encoder for the r seen topic phrases (token-id form).
func buildTopicKnowledge(enc wb.DocEncoder, topics [][]int) *TopicKnowledge {
	table := encoderEmbedding(enc)
	dim := table.Cols
	embeds := tensor.New(len(topics), dim)
	for i, topic := range topics {
		row := embeds.Row(i)
		for _, id := range topic {
			src := table.Row(id)
			for j, v := range src {
				row[j] += v
			}
		}
		inv := 1 / float64(len(topic))
		for j := range row {
			row[j] *= inv
		}
	}
	return &TopicKnowledge{Embeds: embeds}
}

// encoderEmbedding returns the token-embedding table inside a document
// encoder.
func encoderEmbedding(enc wb.DocEncoder) *tensor.Matrix {
	switch e := enc.(type) {
	case *wb.GloVeEncoder:
		return e.Emb.Table.Value
	case *wb.BERTEncoder:
		return e.Tr.Tok.Table.Value
	}
	panic(fmt.Sprintf("distill: unsupported encoder %T", enc))
}

// Distiller trains a student to mimic a frozen teacher.
type Distiller struct {
	Teacher wb.Model
	Student wb.Model
	Task    Task
	Cfg     Config
	Topics  *TopicKnowledge

	// Distillation-time trainable projections.
	WR  *nn.Linear   // topic embeds → R
	WAT *nn.Bilinear // teacher hidden × R
	WAS *nn.Bilinear // student hidden × R

	initialized bool
	rng         *rand.Rand

	// teacherTapes pairs each student tape with a reusable arena tape for
	// the frozen teacher's forward pass. The pairing matters for parallel
	// training: teacher values are read during the student tape's Backward,
	// so the teacher tape may only be reset when its student tape starts
	// the next example — never while another worker still needs it.
	mu           sync.Mutex
	teacherTapes map[*ag.Tape]*ag.Tape
}

// teacherTapeFor returns the reusable teacher tape paired with student tape
// t, creating it on first use.
func (d *Distiller) teacherTapeFor(t *ag.Tape) *ag.Tape {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.teacherTapes == nil {
		d.teacherTapes = make(map[*ag.Tape]*ag.Tape)
	}
	tt := d.teacherTapes[t]
	if tt == nil {
		tt = ag.NewArenaTape()
		d.teacherTapes[t] = tt
	}
	return tt
}

// New creates a distiller. topics are the seen-domain topic phrases in
// token-id form; teacherEnc is the teacher's document encoder, from which
// the stored topic knowledge is read.
func New(teacher, student wb.Model, task Task, teacherEnc wb.DocEncoder, topics [][]int, cfg Config) *Distiller {
	return &Distiller{
		Teacher: teacher,
		Student: student,
		Task:    task,
		Cfg:     cfg,
		Topics:  buildTopicKnowledge(teacherEnc, topics),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// initProjections sizes W_R / W_AT / W_AS from the first observed hidden
// representations.
func (d *Distiller) initProjections(teacherH, studentH *ag.Node) {
	if d.initialized {
		return
	}
	d.WR = nn.NewLinear("distill.wr", d.Topics.Embeds.Cols, d.Cfg.RepDim, d.rng)
	d.WAT = nn.NewBilinear("distill.wat", teacherH.Cols(), d.Cfg.RepDim, d.rng)
	d.WAS = nn.NewBilinear("distill.was", studentH.Cols(), d.Cfg.RepDim, d.rng)
	d.initialized = true
}

// projParams returns the distillation projections' parameters (empty before
// first use).
func (d *Distiller) projParams() []*ag.Param {
	if !d.initialized {
		return nil
	}
	return nn.CollectParams(d.WR, d.WAT, d.WAS)
}

// hiddenFor selects the representation the identification distillation
// matches for a task: token representations for attribute extraction,
// sentence representations for topic generation, and the token
// representations as the shared representation for joint distillation.
func hiddenFor(task Task, out *wb.Output) *ag.Node {
	if task == TaskTopic {
		return out.SentH
	}
	return out.TokenH
}

// idLoss computes L_ID: the L1 difference between teacher and student
// attention distributions over the topic phrase matrix R (Eq. L_ID). The
// teacher's hidden representations are constants; gradient reaches the
// student's and the three projections.
func (d *Distiller) idLoss(t *ag.Tape, teacherH *tensor.Matrix, studentH *ag.Node) *ag.Node {
	r := t.Tanh(d.WR.Forward(t, t.Const(d.Topics.Embeds))) // r×RepDim
	aT := t.SoftmaxRows(t.MatMulTransB(t.MatMul(t.Const(teacherH), t.Use(d.WAT.W)), r))
	aS := t.SoftmaxRows(t.MatMulTransB(t.MatMul(studentH, t.Use(d.WAS.W)), r))
	return t.L1Between(aT, aS)
}

// udLoss computes L_UD: KL(P_T ‖ P_S) with temperature γ, already scaled by
// γ² per [17] so its gradients match the hard loss's magnitude.
func (d *Distiller) udLoss(t *ag.Tape, teacherLogits *tensor.Matrix, studentLogits *ag.Node) *ag.Node {
	gamma := d.Cfg.Gamma
	pT := teacherLogits.Scale(1 / gamma).SoftmaxRows()
	kl := t.KLDiv(pT, t.Scale(studentLogits, 1/gamma))
	w := d.Cfg.SoftWeight
	if w <= 0 {
		w = 1
	}
	return t.Scale(kl, w*gamma*gamma)
}

// LossOn builds the full distillation loss for one instance on tape t. The
// teacher runs on its own tape in Distill mode (teacher forcing, no
// dropout) and contributes values only.
func (d *Distiller) LossOn(t *ag.Tape, inst *wb.Instance) *ag.Node {
	tt := d.teacherTapeFor(t)
	tt.Reset()
	tOut := d.Teacher.Forward(tt, inst, wb.Distill)
	sOut := d.Student.Forward(t, inst, wb.Train)
	d.initProjections(hiddenFor(d.Task, tOut), hiddenFor(d.Task, sOut))

	var terms []*ag.Node
	if d.Cfg.HardLoss {
		terms = append(terms, d.hardLoss(t, sOut, inst))
	}
	if d.Cfg.UseID {
		th := hiddenFor(d.Task, tOut).Value
		sh := hiddenFor(d.Task, sOut)
		weight := d.Cfg.Alpha
		if d.Task == TaskJoint {
			weight = d.Cfg.Lambda
		}
		terms = append(terms, t.Scale(d.idLoss(t, th, sh), weight))
	}
	if d.Cfg.UseUD {
		switch d.Task {
		case TaskAttr:
			terms = append(terms, d.udLoss(t, tOut.TagLogits.Value, sOut.TagLogits))
		case TaskTopic:
			terms = append(terms, d.udLoss(t, tOut.TopicLogits.Value, sOut.TopicLogits))
		case TaskJoint:
			terms = append(terms,
				t.Scale(d.udLoss(t, tOut.TagLogits.Value, sOut.TagLogits), d.Cfg.Mu),
				t.Scale(d.udLoss(t, tOut.TopicLogits.Value, sOut.TopicLogits), d.Cfg.Nu))
		}
	}
	if len(terms) == 0 {
		panic("distill: no loss terms enabled")
	}
	return t.AddScalars(terms...)
}

// hardLoss is the supervised loss restricted to the distilled task's heads.
func (d *Distiller) hardLoss(t *ag.Tape, out *wb.Output, inst *wb.Instance) *ag.Node {
	var terms []*ag.Node
	if d.Task != TaskTopic && out.TagLogits != nil {
		terms = append(terms, t.CrossEntropy(out.TagLogits, inst.Tags))
	}
	if d.Task != TaskAttr && out.TopicLogits != nil {
		terms = append(terms, t.CrossEntropy(out.TopicLogits, inst.TopicOut))
	}
	if d.Task == TaskJoint && out.SecLogits != nil {
		terms = append(terms, t.BCELoss(out.SecLogits, inst.SentInfo))
	}
	if len(terms) == 0 {
		panic("distill: student lacks the heads for its task")
	}
	return t.AddScalars(terms...)
}

// Train distills the student on insts and returns per-epoch mean losses.
// The optimizer covers the student parameters and the distillation
// projections; the teacher is never updated. Training runs on the shared
// batch-parallel engine (wb.TrainEpochs), so tc.BatchSize and tc.Workers
// apply to distillation exactly as they do to supervised training.
func (d *Distiller) Train(insts []*wb.Instance, tc wb.TrainConfig) []float64 {
	if len(insts) == 0 {
		return nil
	}
	// Build projections on a throwaway pass so the optimizer sees them.
	warm := ag.NewTape()
	d.LossOn(warm, insts[0])

	params := append(append([]*ag.Param{}, d.Student.Params()...), d.projParams()...)
	optim := opt.NewAdam(params, tc.LR)
	optim.Clip = tc.Clip
	if tc.Warmup > 0 {
		optim.Schedule = opt.WarmupDecay{WarmupSteps: tc.Warmup}
	}
	optim.ZeroGrad() // discard warm-up gradients

	return wb.TrainEpochs(optim, params, len(insts), tc, func(t *ag.Tape, idx int) *ag.Node {
		return d.LossOn(t, insts[idx])
	}, nil)
}

// TopicIDs converts topic phrases to token-id form for buildTopicKnowledge.
func TopicIDs(topics [][]string, v *textproc.Vocab) [][]int {
	out := make([][]int, len(topics))
	for i, tp := range topics {
		out[i] = v.IDs(tp)
	}
	return out
}
