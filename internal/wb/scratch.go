package wb

import (
	"sync"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// InferScratchOf is a per-call inference workspace: a no-gradient arena tape,
// the matmul pack buffer it routes products through, and the beam-search
// buffers. A warm scratch makes ExtractBriefWith/DecodeTopicWith
// allocation-free apart from the assembled Brief itself.
//
// Ownership contract: a scratch belongs to exactly one in-flight request at
// a time — serve.Pool gives each replica its own, and the package pool hands
// each transient caller a private one. The scratch resets its own tape at the
// START of each forward (not the end), so returned Briefs — which hold only
// strings and ints, never tensor memory — stay valid while the scratch is
// reused. Nothing that aliases the tape arena may escape a With-call.
type InferScratchOf[T tensor.Float] struct {
	Tape *ag.TapeOf[T]
	Pack *tensor.PackBufOf[T]
	Beam *nn.BeamScratchOf[T]
}

// InferScratch is the teacher's workspace, InferScratch32 the student's.
type (
	InferScratch   = InferScratchOf[float64]
	InferScratch32 = InferScratchOf[float32]
)

// NewInferScratchOf returns a workspace with the beam buffers presized for
// decoding v-vocabulary topics at the given beam width, so the first request
// is already warm. With a nil vocabulary or width ≤ 1 (greedy decoding) the
// beam buffers grow on first use instead.
func NewInferScratchOf[T tensor.Float](v *textproc.Vocab, beamWidth int) *InferScratchOf[T] {
	s := &InferScratchOf[T]{
		Tape: ag.NewInferTapeOf[T](),
		Pack: &tensor.PackBufOf[T]{},
		Beam: nn.NewBeamScratchOf[T](0, 0, 0),
	}
	if beamWidth > 1 && v != nil {
		s.Beam = nn.NewBeamScratchOf[T](v.Size(), beamWidth, topicMaxLen)
	}
	s.Tape.SetPack(s.Pack)
	return s
}

// NewInferScratch returns an empty teacher workspace.
func NewInferScratch() *InferScratch { return NewInferScratchOf[float64](nil, 0) }

// NewInferScratchFor is NewInferScratchOf[float64].
func NewInferScratchFor(v *textproc.Vocab, beamWidth int) *InferScratch {
	return NewInferScratchOf[float64](v, beamWidth)
}

// NewInferScratch32For is NewInferScratchOf[float32].
func NewInferScratch32For(v *textproc.Vocab, beamWidth int) *InferScratch32 {
	return NewInferScratchOf[float32](v, beamWidth)
}

// scratchPool recycles workspaces for callers without a resident replica
// (eval loops, CLI one-shots).
var scratchPool = sync.Pool{New: func() any { return NewInferScratch() }}

// GetScratch returns a workspace from the package pool. Pair with
// PutScratch.
func GetScratch() *InferScratch { return scratchPool.Get().(*InferScratch) }

// PutScratch returns a workspace to the package pool. The caller must not
// retain the tape or any tensor drawn from it.
func PutScratch(s *InferScratch) { scratchPool.Put(s) }

// ExtractBriefWith runs one eval-mode forward pass on the caller's workspace
// and assembles the extractive half of the briefing: the key attribute spans
// and the informative-section flags. The topic is left empty; DecodeTopicWith
// fills it. The split exists so a caller can time the encode and decode
// stages separately.
func ExtractBriefWith[T tensor.Float](m ModelOf[T], inst *Instance, v *textproc.Vocab, s *InferScratchOf[T]) *Brief {
	s.Tape.Reset()
	out := m.Forward(s.Tape, inst, Eval)
	return extractiveBrief(out, inst, v)
}

// extractiveBrief assembles the extractive half of a briefing from a
// forward-pass output: attribute spans from the BIO tags plus the section
// flags. Shared by the per-request and batched extract paths.
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

// GenerateTopicWith is GenerateTopic running on the caller's workspace: it
// resets the tape, re-runs the full forward and decodes the topic, also
// reporting the decode Confidence the cascade routes on.
func GenerateTopicWith[T tensor.Float](m ModelOf[T], inst *Instance, beamWidth, maxLen int, s *InferScratchOf[T]) ([]int, nn.Confidence) {
	s.Tape.Reset()
	out := m.Forward(s.Tape, inst, Eval)
	if out.Memory == nil || out.Dec == nil {
		return nil, nn.Confidence{}
	}
	if beamWidth <= 1 {
		return out.Dec.Greedy(s.Tape, out.Memory, textproc.BosID, textproc.EosID, maxLen)
	}
	return out.Dec.BeamSearchScratch(s.Tape, out.Memory, textproc.BosID, textproc.EosID, beamWidth, maxLen, s.Beam)
}

// decodeTopicWith generates the briefing's topic phrase on the caller's
// workspace with beam search (width ≤ 1 decodes greedily), plus the decode
// confidence. The topic is nil for models without a generator head.
func decodeTopicWith[T tensor.Float](m ModelOf[T], inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratchOf[T]) ([]string, nn.Confidence) {
	ids, conf := GenerateTopicWith(m, inst, beamWidth, topicMaxLen, s)
	if ids == nil {
		return nil, conf
	}
	return v.Tokens(ids), conf
}

// makeBriefWith is MakeBrief running both stages on one workspace, plus the
// decode confidence.
func makeBriefWith[T tensor.Float](m ModelOf[T], inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratchOf[T]) (*Brief, nn.Confidence) {
	b := ExtractBriefWith(m, inst, v, s)
	topic, conf := decodeTopicWith(m, inst, v, beamWidth, s)
	b.Topic = topic
	return b, conf
}

// The entry points below fix the element type and the result shape for
// callers outside the package: the teacher's drop the confidence nobody
// routes on, the student's (…32) return it.

// DecodeTopicWith is decodeTopicWith on the teacher, without the confidence.
func DecodeTopicWith(m Model, inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch) []string {
	topic, _ := decodeTopicWith(m, inst, v, beamWidth, s)
	return topic
}

// MakeBriefWith is MakeBrief running both stages on one workspace.
func MakeBriefWith(m Model, inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch) *Brief {
	b, _ := makeBriefWith(m, inst, v, beamWidth, s)
	return b
}

// ExtractBriefWith32 is ExtractBriefWith on the student.
func ExtractBriefWith32(m ModelOf[float32], inst *Instance, v *textproc.Vocab, s *InferScratch32) *Brief {
	return ExtractBriefWith(m, inst, v, s)
}

// DecodeTopicWith32 is DecodeTopicWith on the student, with the decode
// confidence.
func DecodeTopicWith32(m ModelOf[float32], inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch32) ([]string, nn.Confidence) {
	return decodeTopicWith(m, inst, v, beamWidth, s)
}

// MakeBriefWith32 briefs one instance end to end on the student and reports
// the decode confidence for cascade routing.
func MakeBriefWith32(m ModelOf[float32], inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch32) (*Brief, nn.Confidence) {
	return makeBriefWith(m, inst, v, beamWidth, s)
}
