// Package baselines implements every comparison system of §IV-A6:
//
// Single-task models (Tables VI, VII):
//   - *→Bi-LSTM extractors and *→[Bi-LSTM, LSTM] generators over any
//     document encoder (GloVe / MiniBERT / MiniBERTSUM),
//   - their "+prior section" and "+prior topic" variants, which concatenate
//     given prior knowledge to the representations (ATAE-LSTM style).
//
// Joint models (Tables VIII, IX):
//   - Naive-Join (shared encoder, summed loss, no signal exchange),
//   - Con-/Ave-Extractor (concatenation-based exchange),
//   - Att-Extractor and Att-Extractor+Att-Generator (attention-based
//     exchange without the section-aware part),
//   - Pip-Extractor+Pip-Generator (pipelined topic-dependent then
//     section-dependent representation learning).
//
// All models implement wb.Model, so the trainer, the evaluator and the
// distillation framework treat them uniformly.
package baselines

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// SingleExtractor is the *→Bi-LSTM single-task attribute extractor.
type SingleExtractor struct {
	ModelName    string
	Enc          wb.DocEncoder
	LSTM         *nn.BiLSTM
	Out          *nn.Linear
	PriorSection bool          // concat gold informative flags (ATAE-style)
	PriorTopic   bool          // concat gold topic representation
	TopicEmb     *nn.Embedding // embeds gold topic tokens for PriorTopic
	Dropout      float64
	rng          *rand.Rand
}

// NewSingleExtractor builds an extractor over enc. vocab sizes the topic
// embedding used by the +prior topic variant.
func NewSingleExtractor(name string, enc wb.DocEncoder, vocab, hidden int, priorSection, priorTopic bool, seed int64) *SingleExtractor {
	rng := rand.New(rand.NewSource(seed))
	in := enc.Dim()
	if priorSection {
		in++
	}
	topicDim := 0
	var topicEmb *nn.Embedding
	if priorTopic {
		topicDim = hidden
		topicEmb = nn.NewEmbedding(name+".topicEmb", vocab, topicDim, rng)
		in += topicDim
	}
	return &SingleExtractor{
		ModelName:    name,
		Enc:          enc,
		LSTM:         nn.NewBiLSTM(name+".lstm", in, hidden, rng),
		Out:          nn.NewLinear(name+".out", 2*hidden, 3, rng),
		PriorSection: priorSection,
		PriorTopic:   priorTopic,
		TopicEmb:     topicEmb,
		Dropout:      0.2,
		rng:          rng,
	}
}

// Name implements wb.Model.
func (m *SingleExtractor) Name() string { return m.ModelName }

// Params implements nn.Layer.
func (m *SingleExtractor) Params() []*ag.Param {
	ps := nn.CollectParams(m.Enc, m.LSTM, m.Out)
	if m.TopicEmb != nil {
		ps = append(ps, m.TopicEmb.Params()...)
	}
	return ps
}

// Forward implements wb.Model.
func (m *SingleExtractor) Forward(t *ag.Tape, inst *wb.Instance, mode wb.Mode) *wb.Output {
	tok, _ := m.Enc.EncodeDoc(t, inst)
	if mode == wb.Train && m.Dropout > 0 {
		tok = t.Dropout(tok, m.Dropout, m.rng)
	}
	feats := tok
	if m.PriorSection {
		feats = t.ConcatCols(feats, goldSectionColumn(t, inst))
	}
	if m.PriorTopic {
		topicVec := t.MeanRows(m.TopicEmb.Forward(t, goldTopicIDs(inst)))
		bcast := t.MatMul(t.Const(tensor.Full(feats.Rows(), 1, 1)), topicVec)
		feats = t.ConcatCols(feats, bcast)
	}
	h := m.LSTM.Forward(t, feats)
	return &wb.Output{TokenH: h, TagLogits: m.Out.Forward(t, h)}
}

// goldSectionColumn returns the l×1 column of gold informative flags
// broadcast to token positions — the "+prior section" signal.
func goldSectionColumn(t *ag.Tape, inst *wb.Instance) *ag.Node {
	col := tensor.New(len(inst.IDs), 1)
	for i, s := range inst.SentOf {
		col.Set(i, 0, float64(inst.SentInfo[s]))
	}
	return t.Const(col)
}

// goldTopicIDs returns the topic token ids excluding BOS.
func goldTopicIDs(inst *wb.Instance) []int {
	return inst.TopicIn[1:]
}

// SingleGenerator is the *→[Bi-LSTM, LSTM] single-task topic generator.
type SingleGenerator struct {
	ModelName    string
	Enc          wb.DocEncoder
	LSTM         *nn.BiLSTM
	MemPr        *nn.Linear
	Dec          *nn.AttnDecoder
	PriorSection bool
	Dropout      float64
	TopicLen     int
	rng          *rand.Rand
}

// NewSingleGenerator builds a generator over enc with the given decoder
// vocabulary.
func NewSingleGenerator(name string, enc wb.DocEncoder, vocab, hidden int, priorSection bool, seed int64) *SingleGenerator {
	rng := rand.New(rand.NewSource(seed))
	in := enc.Dim()
	if priorSection {
		in++
	}
	return &SingleGenerator{
		ModelName:    name,
		Enc:          enc,
		LSTM:         nn.NewBiLSTM(name+".lstm", in, hidden, rng),
		MemPr:        nn.NewLinear(name+".mem", 2*hidden, hidden, rng),
		Dec:          nn.NewAttnDecoder(name+".dec", vocab, hidden, hidden, hidden, rng),
		PriorSection: priorSection,
		Dropout:      0.2,
		TopicLen:     4,
		rng:          rng,
	}
}

// Name implements wb.Model.
func (m *SingleGenerator) Name() string { return m.ModelName }

// Params implements nn.Layer.
func (m *SingleGenerator) Params() []*ag.Param {
	return nn.CollectParams(m.Enc, m.LSTM, m.MemPr, m.Dec)
}

// Forward implements wb.Model.
func (m *SingleGenerator) Forward(t *ag.Tape, inst *wb.Instance, mode wb.Mode) *wb.Output {
	_, sent := m.Enc.EncodeDoc(t, inst)
	if mode == wb.Train && m.Dropout > 0 {
		sent = t.Dropout(sent, m.Dropout, m.rng)
	}
	feats := sent
	if m.PriorSection {
		col := tensor.New(inst.NumSents(), 1)
		for s, info := range inst.SentInfo {
			col.Set(s, 0, float64(info))
		}
		feats = t.ConcatCols(feats, t.Const(col))
	}
	h := m.LSTM.Forward(t, feats)
	mem := m.MemPr.Forward(t, h)
	out := &wb.Output{SentH: h, Memory: mem, Dec: m.Dec}
	if mode.TeacherForced() {
		var states *ag.Node
		out.TopicLogits, states = m.Dec.ForwardStates(t, mem, inst.TopicIn)
		out.TopicStates = states
	} else {
		out.TopicStates = m.Dec.GreedyStates(t, mem, textproc.BosID, textproc.EosID, m.TopicLen)
	}
	return out
}
