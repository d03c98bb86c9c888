package baselines

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// Exchange selects the signal-exchange mechanism of a joint baseline
// (§IV-A6-ii).
type Exchange int

// Signal-exchange variants.
const (
	// ExchangeNone is Naive-Join: shared encoder, summed loss, no exchange.
	ExchangeNone Exchange = iota
	// ExchangeConcat is Con-Extractor: the generator's final topic state is
	// concatenated onto every token representation.
	ExchangeConcat
	// ExchangeAverage is Ave-Extractor: the mean of the topic states is
	// concatenated instead.
	ExchangeAverage
	// ExchangeAttn is Att-Extractor: topic-aware attention re-weighting of
	// token representations (the dual-aware mechanism minus the
	// section-aware part); the generator stays basic.
	ExchangeAttn
	// ExchangeAttnBoth is Att-Extractor+Att-Generator: attention-based
	// exchange in both directions, still without section signals.
	ExchangeAttnBoth
	// ExchangePipeline is Pip-Extractor+Pip-Generator: topic-dependent and
	// section-dependent representations learned in sequence (pipeline), so
	// section signals are used but not fused in one dual-aware attention.
	ExchangePipeline
)

// exchangeNames maps variants to the paper's system names.
var exchangeNames = map[Exchange]string{
	ExchangeNone:     "Naive-Join",
	ExchangeConcat:   "Con-Extractor",
	ExchangeAverage:  "Ave-Extractor",
	ExchangeAttn:     "Att-Extractor",
	ExchangeAttnBoth: "Att-Extractor+Att-Generator",
	ExchangePipeline: "Pip-Extractor+Pip-Generator",
}

// Joint is the family of jointly trained baselines. Joint-WB itself lives
// in package wb; Joint covers everything it is compared against in Tables
// VIII and IX.
type Joint struct {
	ModelName string
	Variant   Exchange
	Enc       wb.DocEncoder

	ExtLSTM *nn.BiLSTM
	GenLSTM *nn.BiLSTM
	MemPr   *nn.Linear
	MemPr2  *nn.Linear // pipeline/att-both: projects enriched memory
	Dec     *nn.AttnDecoder
	TagW    *nn.Linear

	WQ   *nn.Linear   // integrated topic representation
	AttE *nn.Bilinear // extractor-side attention
	WE   *nn.Linear   // integrated attribute representation
	AttG *nn.Linear   // generator-side attention
	Sec  *wb.SectionPredictor
	WCE  *nn.Linear // pipeline section-dependent token reps
	WCG  *nn.Linear // pipeline section-dependent sentence reps

	Dropout  float64
	TopicLen int
	rng      *rand.Rand
}

// NewJoint builds a joint baseline of the given variant over enc.
func NewJoint(variant Exchange, enc wb.DocEncoder, vocab, hidden int, seed int64) *Joint {
	rng := rand.New(rand.NewSource(seed))
	d := enc.Dim()
	bi := 2 * hidden
	name := exchangeNames[variant]
	m := &Joint{
		ModelName: name,
		Variant:   variant,
		Enc:       enc,
		ExtLSTM:   nn.NewBiLSTM(name+".ext", d, hidden, rng),
		GenLSTM:   nn.NewBiLSTM(name+".gen", d, hidden, rng),
		MemPr:     nn.NewLinear(name+".mem", bi, hidden, rng),
		Dec:       nn.NewAttnDecoder(name+".dec", vocab, hidden, hidden, hidden, rng),
		Dropout:   0.2,
		TopicLen:  4,
		rng:       rng,
	}
	tagIn := bi
	switch variant {
	case ExchangeConcat, ExchangeAverage:
		tagIn = bi + hidden
		m.WQ = nn.NewLinear(name+".wq", hidden, hidden, rng)
	case ExchangeAttn:
		tagIn = bi + hidden
		m.WQ = nn.NewLinear(name+".wq", hidden, hidden, rng)
		m.AttE = nn.NewBilinear(name+".attE", bi, hidden, rng)
	case ExchangeAttnBoth:
		tagIn = bi + hidden
		m.WQ = nn.NewLinear(name+".wq", hidden, hidden, rng)
		m.AttE = nn.NewBilinear(name+".attE", bi, hidden, rng)
		m.WE = nn.NewLinear(name+".we", bi, bi, rng)
		m.AttG = nn.NewLinear(name+".attG", bi, 1, rng)
		m.MemPr2 = nn.NewLinear(name+".mem2", 2*bi, hidden, rng)
	case ExchangePipeline:
		tagIn = hidden
		m.WQ = nn.NewLinear(name+".wq", hidden, hidden, rng)
		m.AttE = nn.NewBilinear(name+".attE", bi, hidden, rng)
		m.WE = nn.NewLinear(name+".we", bi, bi, rng)
		m.AttG = nn.NewLinear(name+".attG", bi, 1, rng)
		m.Sec = wb.NewSectionPredictor(name+".sec", d, rng)
		m.WCE = nn.NewLinear(name+".wce", bi+hidden+1, hidden, rng)
		m.WCG = nn.NewLinear(name+".wcg", 2*bi+1, hidden, rng)
		m.MemPr2 = nn.NewLinear(name+".mem2", hidden, hidden, rng)
	}
	m.TagW = nn.NewLinear(name+".tag", tagIn, 3, rng)
	return m
}

// Name implements wb.Model.
func (m *Joint) Name() string { return m.ModelName }

// Params implements nn.Layer.
func (m *Joint) Params() []*ag.Param {
	ps := nn.CollectParams(m.Enc, m.ExtLSTM, m.GenLSTM, m.MemPr, m.Dec, m.TagW)
	for _, l := range []nn.Layer{m.MemPr2, m.WQ, m.AttE, m.WE, m.AttG, m.Sec, m.WCE, m.WCG} {
		if l != nil && !isNilLayer(l) {
			ps = append(ps, l.Params()...)
		}
	}
	return ps
}

// isNilLayer guards against typed-nil interface values from the optional
// fields above.
func isNilLayer(l nn.Layer) bool {
	switch v := l.(type) {
	case *nn.Linear:
		return v == nil
	case *nn.Bilinear:
		return v == nil
	case *wb.SectionPredictor:
		return v == nil
	}
	return l == nil
}

// broadcastRow repeats a 1×d row n times.
func broadcastRow(t *ag.Tape, row *ag.Node, n int) *ag.Node {
	return t.MatMul(t.Const(tensor.Full(n, 1, 1)), row)
}

// colSoftmax applies a softmax across the rows of an l×1 score column.
func colSoftmax(t *ag.Tape, col *ag.Node) *ag.Node {
	return t.Transpose(t.SoftmaxRows(t.Transpose(col)))
}

// Forward implements wb.Model.
func (m *Joint) Forward(t *ag.Tape, inst *wb.Instance, mode wb.Mode) *wb.Output {
	tok, sent := m.Enc.EncodeDoc(t, inst)
	if mode == wb.Train && m.Dropout > 0 {
		tok = t.Dropout(tok, m.Dropout, m.rng)
		sent = t.Dropout(sent, m.Dropout, m.rng)
	}
	cE := m.ExtLSTM.Forward(t, tok)
	cG := m.GenLSTM.Forward(t, sent)
	mem := m.MemPr.Forward(t, cG)

	// First decoding pass: topic states Q (teacher-forced in training,
	// greedy otherwise), needed by every exchanging variant.
	var topicStates *ag.Node
	if mode.TeacherForced() {
		_, topicStates = m.Dec.ForwardStates(t, mem, inst.TopicIn)
	} else {
		topicStates = m.Dec.GreedyStates(t, mem, textproc.BosID, textproc.EosID, m.TopicLen)
	}

	out := &wb.Output{TokenH: cE, SentH: cG, TopicStates: topicStates, Dec: m.Dec}

	var secLogits, secProbs *ag.Node
	if m.Sec != nil {
		secLogits = m.Sec.Forward(t, sent)
		secProbs = t.Sigmoid(secLogits)
		out.SecLogits = secLogits
	}

	// Extractor side.
	switch m.Variant {
	case ExchangeNone:
		out.TagLogits = m.TagW.Forward(t, cE)
	case ExchangeConcat:
		last := t.SliceRows(topicStates, topicStates.Rows()-1, topicStates.Rows())
		qb := t.Tanh(m.WQ.Forward(t, last))
		out.TagLogits = m.TagW.Forward(t, t.ConcatCols(cE, broadcastRow(t, qb, cE.Rows())))
	case ExchangeAverage:
		qb := t.Tanh(m.WQ.Forward(t, t.MeanRows(topicStates)))
		out.TagLogits = m.TagW.Forward(t, t.ConcatCols(cE, broadcastRow(t, qb, cE.Rows())))
	case ExchangeAttn, ExchangeAttnBoth:
		qb := t.Tanh(m.WQ.Forward(t, t.MeanRows(topicStates)))
		aE := colSoftmax(t, m.AttE.Scores(t, cE, qb))
		out.TagLogits = m.TagW.Forward(t, t.ConcatCols(cE, t.MatMul(aE, qb)))
	case ExchangePipeline:
		// Stage 1: topic-dependent representation.
		qb := t.Tanh(m.WQ.Forward(t, t.MeanRows(topicStates)))
		aE := colSoftmax(t, m.AttE.Scores(t, cE, qb))
		topicDep := t.ConcatCols(cE, t.MatMul(aE, qb))
		// Stage 2: section-dependent representation.
		pTok := t.GatherRows(secProbs, inst.SentOf)
		secDep := t.Tanh(m.WCE.Forward(t, t.ConcatCols(topicDep, pTok)))
		out.TagLogits = m.TagW.Forward(t, secDep)
	}

	// Generator side: which memory feeds the final decode.
	finalMem := mem
	switch m.Variant {
	case ExchangeAttnBoth:
		eb := t.Tanh(m.WE.Forward(t, t.MeanRows(cE)))
		aG := colSoftmax(t, m.AttG.Forward(t, t.Mul(cG, broadcastRow(t, eb, cG.Rows()))))
		finalMem = m.MemPr2.Forward(t, t.ConcatCols(cG, t.MatMul(aG, eb)))
	case ExchangePipeline:
		eb := t.Tanh(m.WE.Forward(t, t.MeanRows(cE)))
		aG := colSoftmax(t, m.AttG.Forward(t, t.Mul(cG, broadcastRow(t, eb, cG.Rows()))))
		attrDep := t.ConcatCols(cG, t.MatMul(aG, eb))
		secDep := t.Tanh(m.WCG.Forward(t, t.ConcatCols(attrDep, secProbs)))
		finalMem = m.MemPr2.Forward(t, secDep)
	}
	out.Memory = finalMem
	if mode.TeacherForced() {
		out.TopicLogits = m.Dec.ForwardTeacherForcing(t, finalMem, inst.TopicIn)
	}
	return out
}
