package wb

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// Config sizes a Joint-WB model (and the baselines that share its parts).
type Config struct {
	Hidden   int     // LSTM hidden size per direction (paper: 108)
	Dropout  float64 // dropout rate (paper: 0.2)
	BeamSize int     // beam width at inference (paper: 200)
	TopicLen int     // maximum decoded topic length (paper beam depth: 4)
	Seed     int64
}

// DefaultConfig returns the reproduction-scale hyperparameters. The paper's
// values (hidden 108, beam 200) are scaled down with the corpus; dropout and
// depth follow §IV-A5.
func DefaultConfig() Config {
	return Config{Hidden: 24, Dropout: 0.2, BeamSize: 8, TopicLen: 4, Seed: 1}
}

// SectionPredictorOf is the informative section predictor P of §III-C. It
// scores sentence j from its neighbours with the Markov dependency
// mechanism: score_j = c⁰_{j-1}·W¹·c⁰_jᵀ + c⁰_j·W²·c⁰_{j+1}ᵀ, with zero
// vectors past the document boundary. Setting NoMarkov replaces the
// neighbour-dependent scoring with an independent per-sentence logistic
// (score_j = c⁰_j·w) — the ablation of the Markov dependency design choice.
type SectionPredictorOf[T tensor.Float] struct {
	W1       *nn.BilinearOf[T]
	W2       *nn.BilinearOf[T]
	Indep    *nn.LinearOf[T]
	NoMarkov bool
}

// The float64 instantiations, and the float32 student's model type.
type (
	SectionPredictor = SectionPredictorOf[float64]
	JointWB          = JointWBOf[float64]
	JointWB32        = JointWBOf[float32]
)

// NewSectionPredictor builds P over dim-wide sentence representations.
func NewSectionPredictor(name string, dim int, rng *rand.Rand) *SectionPredictor {
	return &SectionPredictor{
		W1:    nn.NewBilinear(name+".w1", dim, dim, rng),
		W2:    nn.NewBilinear(name+".w2", dim, dim, rng),
		Indep: nn.NewLinear(name+".indep", dim, 1, rng),
	}
}

// Params implements nn.Layer. Only the active scoring path's parameters
// are exposed, so the flag must be set before the optimizer is built.
func (sp *SectionPredictorOf[T]) Params() []*ag.ParamOf[T] {
	if sp.NoMarkov {
		return sp.Indep.Params()
	}
	return nn.CollectParams(sp.W1, sp.W2)
}

// Forward returns the m×1 section logits for sentence representations sent.
func (sp *SectionPredictorOf[T]) Forward(t *ag.TapeOf[T], sent *ag.NodeOf[T]) *ag.NodeOf[T] {
	if sp.NoMarkov {
		return sp.Indep.Forward(t, sent)
	}
	m, dim := sent.Rows(), sent.Cols()
	var prev, next *ag.NodeOf[T]
	if m == 1 {
		prev = zeroRow(t, dim)
		next = zeroRow(t, dim)
	} else {
		prev = t.ConcatRows(zeroRow(t, dim), t.SliceRows(sent, 0, m-1))
		next = t.ConcatRows(t.SliceRows(sent, 1, m), zeroRow(t, dim))
	}
	// Row-wise bilinear forms: sum over columns of (prev·W1) ⊙ cur etc.
	s1 := rowSum(t, t.Mul(t.MatMul(prev, t.Use(sp.W1.W)), sent))
	s2 := rowSum(t, t.Mul(t.MatMul(sent, t.Use(sp.W2.W)), next))
	return t.Add(s1, s2)
}

// JointWBOf is the full joint model of §III-C: the extractor E, generator G
// and section predictor P over a shared document encoder, connected by the
// signal enhancement and exchange mechanisms.
//
// Signal flow per forward pass:
//  1. The encoder produces token reps C and sentence reps C⁰.
//  2. P scores sections from C⁰ (Markov dependency); the sigmoid
//     probabilities are the differentiable section signal Φ(p).
//  3. E's Bi-LSTM yields C_E; G's Bi-LSTM yields C_G.
//  4. A first decoding pass over C_G yields topic states Q and the
//     integrated topic representation Q^b (mean-pooled — the paper
//     concatenates a fixed-length topic, pooling handles variable length).
//  5. Section-and-topic dual-aware attention re-weights token positions
//     toward Q^b and the section signal, giving Ĉ_E → BIO tag logits.
//  6. Section-and-key-attributes dual-aware attention re-weights sentence
//     positions toward the integrated attribute representation E^b and the
//     section signal, giving Ĉ_G → the memory for the final topic decode.
//
// The float32 student (JointWB32, built by ConvertJointWB) is this type
// instantiated at float32: it holds no gradient buffers and no dropout
// rng, and only ever runs Eval forwards.
type JointWBOf[T tensor.Float] struct {
	Cfg Config
	Enc DocEncoderOf[T]

	ExtLSTM *nn.BiLSTMOf[T] // E's encoder over token reps
	GenLSTM *nn.BiLSTMOf[T] // G's encoder over sentence reps
	Sec     *SectionPredictorOf[T]

	Dec    *nn.AttnDecoderOf[T] // shared decoder for both passes
	MemPr1 *nn.LinearOf[T]      // projects C_G to decoder memory space
	MemPr2 *nn.LinearOf[T]      // projects Ĉ_G to decoder memory space

	WCE  *nn.LinearOf[T]   // section-dependent token reps C_E^b
	WQ   *nn.LinearOf[T]   // integrated topic representation Q^b
	AttE *nn.BilinearOf[T] // A_E = softmax(C_E^b·W_AE·Q^bᵀ)
	TagW *nn.LinearOf[T]   // tag output over Ĉ_E

	WCG  *nn.LinearOf[T] // section-dependent sentence reps C_G^b
	WE   *nn.LinearOf[T] // integrated attribute representation E^b
	AttG *nn.LinearOf[T] // A_G = softmax((C_G^b ⊙ E^b)·W_AG)

	rng *rand.Rand
}

// NewJointWB assembles the joint model over enc with vocabulary size vocab,
// its parameters drawn from cfg.Seed's stream, which then drives dropout.
func NewJointWB(name string, enc DocEncoder, vocab int, cfg Config) *JointWB {
	return newJointWB(name, enc, vocab, cfg, true)
}

// newJointWB is NewJointWB, or with draw unset the same model with nothing
// drawn and no rng: every weight zeroed at its shape and no gradient buffer
// (the nn constructors' nil rng), for a caller that overwrites every value
// and never trains the result (DecodeSnapshot).
func newJointWB(name string, enc DocEncoder, vocab int, cfg Config, draw bool) *JointWB {
	var rng *rand.Rand
	if draw {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	h := cfg.Hidden
	d := enc.Dim()
	bi := 2 * h
	m := &JointWB{
		Cfg:     cfg,
		Enc:     enc,
		ExtLSTM: nn.NewBiLSTM(name+".ext", d, h, rng),
		GenLSTM: nn.NewBiLSTM(name+".gen", d, h, rng),
		Sec:     NewSectionPredictor(name+".sec", d, rng),
		Dec:     nn.NewAttnDecoder(name+".dec", vocab, h, h, h, rng),
		MemPr1:  nn.NewLinear(name+".mem1", bi, h, rng),
		MemPr2:  nn.NewLinear(name+".mem2", bi+h, h, rng),
		WCE:     nn.NewLinear(name+".wce", bi+1, h, rng),
		WQ:      nn.NewLinear(name+".wq", h, h, rng),
		AttE:    nn.NewBilinear(name+".attE", h, h, rng),
		TagW:    nn.NewLinear(name+".tag", bi+h, 3, rng),
		WCG:     nn.NewLinear(name+".wcg", bi+1, h, rng),
		WE:      nn.NewLinear(name+".we", bi, h, rng),
		AttG:    nn.NewLinear(name+".attG", h, 1, rng),
		rng:     rng,
	}
	return m
}

// Name implements Model.
func (m *JointWBOf[T]) Name() string { return "Joint-WB" }

// Params implements nn.Layer.
func (m *JointWBOf[T]) Params() []*ag.ParamOf[T] {
	return nn.CollectParams(m.Enc, m.ExtLSTM, m.GenLSTM, m.Sec, m.Dec,
		m.MemPr1, m.MemPr2, m.WCE, m.WQ, m.AttE, m.TagW, m.WCG, m.WE, m.AttG)
}

// Forward implements Model: the per-instance forward of training, teacher
// forcing and the heap-tape reference. It never reads a fold table; no-gradient
// inference goes through ForwardBatchEval, a lone page as a batch of one.
func (m *JointWBOf[T]) Forward(t *ag.TapeOf[T], inst *Instance, mode Mode) *OutputOf[T] {
	tok, sent := m.Enc.EncodeDoc(t, inst)
	if mode == Train && m.Cfg.Dropout > 0 {
		tok = t.Dropout(tok, m.Cfg.Dropout, m.rng)
		sent = t.Dropout(sent, m.Cfg.Dropout, m.rng)
	}

	// P: Markov-dependency section logits.
	secLogits := m.Sec.Forward(t, sent)

	// E and G base encoders.
	cE := m.ExtLSTM.Forward(t, tok)  // l×2h
	cG := m.GenLSTM.Forward(t, sent) // m×2h

	return m.forwardTail(t, inst, mode, secLogits, cE, cG)
}

// ForwardBatchEval runs the Eval-mode forward for several instances on one
// tape, fusing the two Bi-LSTM recurrences across the batch (the dominant
// per-request serial cost) while everything whose shape is per-document —
// encoding, section scoring, the decode passes and the dual-aware
// attentions — runs per instance. Every op in both halves computes output
// rows independently, so each returned Output holds values identical to a
// lone Forward(t, inst, Eval) for that instance (up to the sign of zero,
// which no downstream argmax/threshold/ordering can observe).
func (m *JointWBOf[T]) ForwardBatchEval(t *ag.TapeOf[T], insts []*Instance) []*OutputOf[T] {
	return m.forwardBatchEval(t, insts, nil)
}

// forwardBatchEval is ForwardBatchEval, with E's input projections read from
// fold's tables when fold is set (FoldedOf, on a no-gradient tape only).
func (m *JointWBOf[T]) forwardBatchEval(t *ag.TapeOf[T], insts []*Instance, fold *FoldTablesOf[T]) []*OutputOf[T] {
	toks := make([]*ag.NodeOf[T], len(insts))
	sents := make([]*ag.NodeOf[T], len(insts))
	secs := make([]*ag.NodeOf[T], len(insts))
	idss := make([][]int, len(insts))
	for i, inst := range insts {
		toks[i], sents[i] = m.Enc.EncodeDoc(t, inst)
		secs[i] = m.Sec.Forward(t, sents[i])
		idss[i] = inst.IDs
	}
	var cEs []*ag.NodeOf[T]
	if fold != nil {
		cEs = m.ExtLSTM.ForwardBatchIDs(t, fold.ExtFwd, fold.ExtBwd, idss)
	} else {
		cEs = m.ExtLSTM.ForwardBatch(t, toks)
	}
	cGs := m.GenLSTM.ForwardBatch(t, sents)
	outs := make([]*OutputOf[T], len(insts))
	for i, inst := range insts {
		outs[i] = m.forwardTail(t, inst, Eval, secs[i], cEs[i], cGs[i])
	}
	return outs
}

// forwardTail is everything downstream of the base encoders: the first
// decode pass, both dual-aware attentions and the output assembly. Shared
// verbatim by the serial and batched forwards so they cannot drift.
func (m *JointWBOf[T]) forwardTail(t *ag.TapeOf[T], inst *Instance, mode Mode, secLogits, cE, cG *ag.NodeOf[T]) *OutputOf[T] {
	secProbs := t.Sigmoid(secLogits)

	// First decoding pass over plain C_G: topic states Q and Q^b.
	mem1 := m.MemPr1.Forward(t, cG)
	var topicStates *ag.NodeOf[T]
	gaps := nn.NoGaps()
	if mode.TeacherForced() {
		_, topicStates = m.Dec.ForwardStates(t, mem1, inst.TopicIn)
	} else {
		topicStates = m.Dec.GreedyStates(t, mem1, textproc.BosID, textproc.EosID, m.Cfg.TopicLen, &gaps)
	}
	qb := t.Tanh(m.WQ.Forward(t, t.MeanRows(topicStates))) // 1×h

	// Section-and-topic dual-aware token representations (Ĉ_E).
	pTok := sentProbsToTokens(t, secProbs, inst)        // l×1
	cEb := t.Tanh(m.WCE.ForwardCat(t, cE, pTok))        // l×h
	aE := softmaxOverRows(t, m.AttE.Scores(t, cEb, qb)) // l×1
	topicCtx := t.MatMul(aE, qb)                        // l×h
	tagLogits := m.TagW.ForwardCat(t, cE, topicCtx)

	// Section-and-key-attributes dual-aware sentence representations (Ĉ_G).
	eb := t.Tanh(m.WE.Forward(t, t.MeanRows(cE))) // 1×h
	cGb := t.Tanh(m.WCG.ForwardCat(t, cG, secProbs))
	ebRows := t.MatMul(t.Const(onesCol(t, cGb.Rows())), eb) // m×h broadcast
	aG := softmaxOverRows(t, m.AttG.Forward(t, t.Mul(cGb, ebRows)))
	attrCtx := t.MatMul(aG, eb) // m×h
	mem2 := m.MemPr2.ForwardCat(t, cG, attrCtx)

	out := &OutputOf[T]{
		TokenH:      cE,
		SentH:       cG,
		TopicStates: topicStates,
		TagLogits:   tagLogits,
		SecLogits:   secLogits,
		Memory:      mem2,
		Dec:         m.Dec,
		Gaps:        gaps,
	}
	if mode.TeacherForced() {
		out.TopicLogits = m.Dec.ForwardTeacherForcing(t, mem2, inst.TopicIn)
	}
	return out
}
