package distill

import (
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// WithPredictedTopics returns copies of insts whose topic fields are
// replaced by topicModel's own generated topics. It is the plumbing of
// Pip-Distill (§IV-A7): the first Dual-Distilled student's output topic is
// fed to the second student's attribute extraction as prior knowledge. An
// empty generation degrades to a single [UNK] so downstream consumers always
// see a non-empty prior.
func WithPredictedTopics(insts []*wb.Instance, topicModel wb.Model, beamWidth, maxLen int) []*wb.Instance {
	out := make([]*wb.Instance, len(insts))
	for i, inst := range insts {
		ids := wb.GenerateTopic(topicModel, inst, beamWidth, maxLen)
		if len(ids) == 0 {
			ids = []int{textproc.UnkID}
		}
		clone := *inst
		clone.TopicIn = append([]int{textproc.BosID}, ids...)
		clone.TopicOut = append(append([]int{}, ids...), textproc.EosID)
		out[i] = &clone
	}
	return out
}

// Pip bundles the two stages of Pip-Distill.
type Pip struct {
	TopicStage *Distiller // Dual-Distill for topic generation
	AttrStage  *Distiller // Dual-Distill for attribute extraction
	BeamWidth  int
	MaxLen     int
}

// Train runs the pipeline: distill the topic student, regenerate the
// instances with its predictions, then distill the attribute student on the
// topic-conditioned instances. It returns the two loss curves.
func (p *Pip) Train(insts []*wb.Instance, tc wb.TrainConfig) (topicLosses, attrLosses []float64) {
	topicLosses = p.TopicStage.Train(insts, tc)
	piped := WithPredictedTopics(insts, p.TopicStage.Student, p.BeamWidth, p.MaxLen)
	attrLosses = p.AttrStage.Train(piped, tc)
	return topicLosses, attrLosses
}
