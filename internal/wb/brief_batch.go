package wb

import (
	"sync"
	"time"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// BatchScratchOf is the inference workspace: one no-gradient arena tape
// shared by every instance of a batch, plus one beam scratch per batch slot
// so the batched beam search keeps each instance's ping-pong token pools
// private. A lone briefing is a
// batch of one. A warm scratch makes a briefing allocation-free apart from
// the assembled Briefs themselves.
//
// Ownership: a scratch belongs to exactly one in-flight batch at a time —
// each serving replica holds its own per tier, and transient callers
// (MakeBrief, the evaluation loops) borrow one from the package pool. The
// tape resets at the START of ExtractBriefBatch, so the Outputs it returns
// stay valid — and DecodeTopicBatch may still use them — until the next
// extract call on the same scratch. Briefs hold only strings and ints and
// never alias the tape; nothing else drawn from the tape may outlive that
// reset.
type BatchScratchOf[T tensor.Float] struct {
	Tape  *ag.TapeOf[T]
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
	s := &BatchScratchOf[T]{Tape: ag.NewInferTapeOf[T]()}
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

// scratchPool lends teacher workspaces to callers without a resident one:
// CLI one-shots and the evaluation loops, which fan out over instances.
var scratchPool = sync.Pool{New: func() any { return NewBatchScratchOf[float64](nil, 0, 0) }}

// forwardEval resets the workspace and runs one Eval forward for every
// instance on its tape: in lockstep through BatchForwarderOf — whatever the
// batch size — or, for a model that has no batched forward (the baselines),
// one Forward per instance.
func forwardEval[T tensor.Float](m ModelOf[T], insts []*Instance, s *BatchScratchOf[T]) []*OutputOf[T] {
	s.Tape.Reset()
	if bf, ok := m.(BatchForwarderOf[T]); ok {
		return bf.ForwardBatchEval(s.Tape, insts)
	}
	outs := make([]*OutputOf[T], len(insts))
	for i, inst := range insts {
		outs[i] = m.Forward(s.Tape, inst, Eval)
	}
	return outs
}

// ExtractBriefBatch runs one Eval forward for every instance on the shared
// tape and assembles the extractive half of each briefing: the key attribute
// spans and the informative-section flags. The topics are left empty;
// DecodeTopicBatch fills them from the returned Outputs, which die at the
// scratch's next reset. The split exists so a caller can time the encode and
// decode stages separately.
func ExtractBriefBatch[T tensor.Float](m ModelOf[T], insts []*Instance, v *textproc.Vocab, s *BatchScratchOf[T]) ([]*Brief, []*OutputOf[T]) {
	outs := forwardEval(m, insts, s)
	briefs := make([]*Brief, len(insts))
	for i, out := range outs {
		briefs[i] = extractiveBrief(out, insts[i], v)
	}
	return briefs, outs
}

// extractiveBrief assembles the extractive half of a briefing from a
// forward-pass output: attribute spans from the BIO tags plus the section
// flags.
func extractiveBrief[T tensor.Float](out *OutputOf[T], inst *Instance, v *textproc.Vocab) *Brief {
	b := &Brief{}
	if tags := PredictTags(out); tags != nil {
		for _, sp := range eval.SpansFromBIO(tags) {
			var words []string
			for i := sp.Start; i < sp.End; i++ {
				words = append(words, v.Token(inst.IDs[i]))
			}
			b.Attributes = append(b.Attributes, words)
		}
	}
	b.Sections = PredictSections(out)
	return b
}

// decodeTopics decodes a topic of at most maxLen tokens from each of outs
// (the Outputs of a forward still live on s.Tape) and returns the token ids
// with each decode's confidence. Beam widths > 1 run one batched beam search
// across every instance with a generator head; width ≤ 1 decodes each
// greedily. Instances without a generator head get nil ids and a zero
// confidence.
func decodeTopics[T tensor.Float](outs []*OutputOf[T], beamWidth, maxLen int, s *BatchScratchOf[T]) ([][]int, []nn.Confidence) {
	ids := make([][]int, len(outs))
	confs := make([]nn.Confidence, len(outs))
	// Batch every decodable instance; remember where each came from.
	idx := make([]int, 0, len(outs))
	mems := make([]*ag.NodeOf[T], 0, len(outs))
	for i, out := range outs {
		if out.Memory != nil && out.Dec != nil {
			out.Memory.CheckLive("decodeTopics")
			idx = append(idx, i)
			mems = append(mems, out.Memory)
		}
	}
	if len(idx) == 0 {
		return ids, confs
	}
	if beamWidth <= 1 {
		for _, i := range idx {
			ids[i], confs[i] = outs[i].Dec.Greedy(s.Tape, outs[i].Memory, textproc.BosID, textproc.EosID, maxLen)
		}
		return ids, confs
	}
	tokIDs, beamConfs := outs[idx[0]].Dec.BeamSearchBatch(s.Tape, mems, textproc.BosID, textproc.EosID,
		beamWidth, maxLen, s.beamScratches(len(idx)))
	for k, i := range idx {
		ids[i], confs[i] = tokIDs[k], beamConfs[k]
	}
	return ids, confs
}

// DecodeTopicBatch fills briefs[i].Topic with the topic phrase, at most
// topicMaxLen tokens, decoded from outs[i] (the Outputs ExtractBriefBatch
// returned, still live on s.Tape) and returns each instance's decode
// confidence — what the cascade routes on. Instances without a generator
// head keep a nil topic and a zero confidence.
func DecodeTopicBatch[T tensor.Float](outs []*OutputOf[T], v *textproc.Vocab, beamWidth int, s *BatchScratchOf[T], briefs []*Brief) []nn.Confidence {
	ids, confs := decodeTopics(outs, beamWidth, topicMaxLen, s)
	for i, topic := range ids {
		if topic != nil {
			briefs[i].Topic = v.Tokens(topic)
		}
	}
	return confs
}

// MakeBriefBatch briefs a batch end to end on one workspace: one forward per
// page, then the topic decode. A member's brief and confidence do not depend
// on its batchmates.
func MakeBriefBatch[T tensor.Float](m ModelOf[T], insts []*Instance, v *textproc.Vocab, beamWidth int, s *BatchScratchOf[T]) ([]*Brief, []nn.Confidence) {
	briefs, outs := ExtractBriefBatch(m, insts, v, s)
	confs := DecodeTopicBatch(outs, v, beamWidth, s, briefs)
	return briefs, confs
}

// TierDecision is how one briefing moved through an ordered list of model
// tiers, fastest first — what a serving replica reports per batch member.
// Tier indexes the tier whose brief the client gets. Escalation is the wall
// time its batch spent re-briefing members on the tiers after the first:
// every member waited it, escalated or not, so a member's time on the first
// tier is its encode and decode less this.
type TierDecision struct {
	Tier       int
	Escalation time.Duration
}
