package wb

import (
	"time"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// BatchScratchOf is the batched counterpart of InferScratchOf: one no-gradient
// arena tape and pack buffer shared by every instance of a micro-batch, plus
// one beam scratch per batch slot so the batched beam search keeps each
// instance's ping-pong token pools private. A scratch belongs to exactly one
// in-flight batch at a time.
//
// The tape resets at the START of ExtractBriefBatch, so the Outputs it
// returns stay valid — and DecodeTopicBatch may still use them — until the
// next extract call on the same scratch. Briefs hold only strings and ints
// and never alias the tape.
type BatchScratchOf[T tensor.Float] struct {
	Tape  *ag.TapeOf[T]
	Pack  *tensor.PackBufOf[T]
	beams []*nn.BeamScratchOf[T]

	vocabSize int // beam scratch presizing, 0 = lazy
	width     int
	maxLen    int
}

// NewBatchScratchOf presizes the workspace for decoding v-vocabulary topics
// at the given beam width with up to batchMax instances per batch, so the
// first batch is already warm. Any argument may be zero; the corresponding
// buffers then grow lazily.
func NewBatchScratchOf[T tensor.Float](v *textproc.Vocab, beamWidth, batchMax int) *BatchScratchOf[T] {
	s := &BatchScratchOf[T]{
		Tape: ag.NewInferTapeOf[T](),
		Pack: &tensor.PackBufOf[T]{},
	}
	s.Tape.SetPack(s.Pack)
	if beamWidth > 1 && v != nil {
		s.vocabSize, s.width, s.maxLen = v.Size(), beamWidth, topicMaxLen
		s.beamScratches(batchMax)
	}
	return s
}

// beamScratches returns n per-slot beam scratches, growing the pool on
// demand and reusing warm entries across batches.
func (s *BatchScratchOf[T]) beamScratches(n int) []*nn.BeamScratchOf[T] {
	for len(s.beams) < n {
		s.beams = append(s.beams, nn.NewBeamScratchOf[T](s.vocabSize, s.width, s.maxLen))
	}
	return s.beams[:n]
}

// ExtractBriefBatch runs one Eval forward for every instance on the shared
// tape — batched through BatchForwarderOf when the model supports it, per
// instance otherwise — and assembles each extractive brief. The returned
// Outputs feed DecodeTopicBatch and die at the scratch's next reset.
func ExtractBriefBatch[T tensor.Float](m ModelOf[T], insts []*Instance, v *textproc.Vocab, s *BatchScratchOf[T]) ([]*Brief, []*OutputOf[T]) {
	s.Tape.Reset()
	var outs []*OutputOf[T]
	if bf, ok := m.(BatchForwarderOf[T]); ok && len(insts) > 1 {
		outs = bf.ForwardBatchEval(s.Tape, insts)
	} else {
		outs = make([]*OutputOf[T], len(insts))
		for i, inst := range insts {
			outs[i] = m.Forward(s.Tape, inst, Eval)
		}
	}
	briefs := make([]*Brief, len(insts))
	for i, out := range outs {
		briefs[i] = extractiveBrief(out, insts[i], v)
	}
	return briefs, outs
}

// DecodeTopicBatch fills briefs[i].Topic by decoding from outs[i] (the
// Outputs ExtractBriefBatch returned, still live on s.Tape) and returns each
// instance's decode confidence. Beam widths > 1 run one batched beam search
// across every instance with a generator head; width ≤ 1 decodes each
// greedily. Instances without a generator head keep a nil topic and a zero
// confidence, exactly like DecodeTopicWith.
func DecodeTopicBatch[T tensor.Float](m ModelOf[T], insts []*Instance, outs []*OutputOf[T], v *textproc.Vocab, beamWidth int, s *BatchScratchOf[T], briefs []*Brief) []nn.Confidence {
	confs := make([]nn.Confidence, len(outs))
	for _, out := range outs {
		if out.Memory != nil {
			out.Memory.CheckLive("DecodeTopicBatch")
		}
	}
	if beamWidth <= 1 {
		for i, out := range outs {
			if out.Memory == nil || out.Dec == nil {
				continue
			}
			ids, conf := out.Dec.Greedy(s.Tape, out.Memory, textproc.BosID, textproc.EosID, topicMaxLen)
			confs[i] = conf
			if ids != nil {
				briefs[i].Topic = v.Tokens(ids)
			}
		}
		return confs
	}
	// Batch every decodable instance; remember where each came from.
	idx := make([]int, 0, len(outs))
	for i, out := range outs {
		if out.Memory != nil && out.Dec != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return confs
	}
	dec := outs[idx[0]].Dec
	mems := make([]*ag.NodeOf[T], len(idx))
	for k, i := range idx {
		mems[k] = outs[i].Memory
	}
	tokIDs, beamConfs := dec.BeamSearchBatch(s.Tape, mems, textproc.BosID, textproc.EosID,
		beamWidth, topicMaxLen, s.beamScratches(len(idx)))
	for k, i := range idx {
		confs[i] = beamConfs[k]
		if tokIDs[k] != nil {
			briefs[i].Topic = v.Tokens(tokIDs[k])
		}
	}
	return confs
}

// MakeBriefBatch briefs a micro-batch end to end on one workspace: batched
// extract, then batched topic decode. Each returned brief and confidence is
// identical to MakeBriefWith on that instance alone.
func MakeBriefBatch[T tensor.Float](m ModelOf[T], insts []*Instance, v *textproc.Vocab, beamWidth int, s *BatchScratchOf[T]) ([]*Brief, []nn.Confidence) {
	briefs, outs := ExtractBriefBatch(m, insts, v, s)
	confs := DecodeTopicBatch(m, insts, outs, v, beamWidth, s, briefs)
	return briefs, confs
}

// TierDecision is how one briefing moved through an ordered list of model
// tiers, fastest first — what a serving replica reports per batch member.
// Tier indexes the tier whose brief the client gets, and Spent[k] is the wall
// time the briefing waited on tier k: the whole fused stage, as every member
// of a batch does, and zero for a tier it never reached.
type TierDecision struct {
	Tier  int
	Spent []time.Duration
}
