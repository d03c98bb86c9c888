package wb

import (
	"webbrief/internal/nn"
	"webbrief/internal/textproc"
)

// The single-instance inference family is gone (a lone briefing is a batch
// of one: ExtractBriefBatch, DecodeTopicBatch, MakeBriefBatch over
// BatchScratchOf). What is left here is the eight names bench/wbload/replay.go
// compiles against, restated over the batch functions with no logic of their
// own, because bench/ changes only in a `benchmark` PR. Nothing else in the
// tree may call them (scripts/check.sh holds that), and the PR that does
// ROADMAP item 6(e)/(f) — repointing the harness at the batch entry points —
// deletes this file.

// InferScratch is the teacher's workspace, InferScratch32 the student's.
type (
	InferScratch   = BatchScratchOf[float64]
	InferScratch32 = BatchScratchOf[float32]
)

// NewInferScratchFor is a teacher workspace for batches of one.
func NewInferScratchFor(v *textproc.Vocab, beamWidth int) *InferScratch {
	return NewBatchScratchOf[float64](v, beamWidth, 1)
}

// NewInferScratch32For is a student workspace for batches of one.
func NewInferScratch32For(v *textproc.Vocab, beamWidth int) *InferScratch32 {
	return NewBatchScratchOf[float32](v, beamWidth, 1)
}

// ExtractBriefWith is ExtractBriefBatch of one on the teacher.
func ExtractBriefWith(m Model, inst *Instance, v *textproc.Vocab, s *InferScratch) *Brief {
	briefs, _ := ExtractBriefBatch(m, []*Instance{inst}, v, s)
	return briefs[0]
}

// ExtractBriefWith32 is ExtractBriefBatch of one on the student.
func ExtractBriefWith32(m ModelOf[float32], inst *Instance, v *textproc.Vocab, s *InferScratch32) *Brief {
	briefs, _ := ExtractBriefBatch(m, []*Instance{inst}, v, s)
	return briefs[0]
}

// DecodeTopicWith is the topic of MakeBriefBatch of one on the teacher,
// forward included.
func DecodeTopicWith(m Model, inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch) []string {
	briefs, _ := MakeBriefBatch(m, []*Instance{inst}, v, beamWidth, s)
	return briefs[0].Topic
}

// DecodeTopicWith32 is the topic and decode confidence of MakeBriefBatch of
// one on the student, forward included.
func DecodeTopicWith32(m ModelOf[float32], inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch32) ([]string, nn.Confidence) {
	briefs, confs := MakeBriefBatch(m, []*Instance{inst}, v, beamWidth, s)
	return briefs[0].Topic, confs[0]
}
