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
