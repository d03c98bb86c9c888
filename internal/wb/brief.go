package wb

import (
	"fmt"
	"strings"

	"webbrief/internal/textproc"
)

// Brief is the hierarchical webpage-briefing output of Fig. 1: the broad
// topic at the top, followed by the extracted key attributes at the finer
// level. Reading it takes seconds instead of the minutes needed to skim the
// page — the task's motivation (§I).
type Brief struct {
	Topic      []string   // generated topic phrase
	Attributes [][]string // extracted key attribute values, document order
	Sections   []int      // predicted informative-section flags per sentence
}

// topicMaxLen bounds the decoded topic phrase length during briefing.
const topicMaxLen = 6

// MakeBrief runs a trained model on an instance and assembles the
// hierarchical briefing: MakeBriefBatch of one on a borrowed workspace.
// Resident callers (serving replicas) hold their own scratch and call the
// batch functions directly.
func MakeBrief(m Model, inst *Instance, v *textproc.Vocab, beamWidth int) *Brief {
	s := scratchPool.Get().(*BatchScratchOf[float64])
	defer scratchPool.Put(s)
	briefs, _ := MakeBriefBatch(m, []*Instance{inst}, v, beamWidth, s)
	return briefs[0]
}

// String renders the briefing as the indented hierarchy of Fig. 1.
func (b *Brief) String() string {
	var sb strings.Builder
	sb.WriteString("Webpage Briefing\n")
	fmt.Fprintf(&sb, "├─ Topic: %s\n", strings.Join(b.Topic, " "))
	for i, attr := range b.Attributes {
		marker := "├─"
		if i == len(b.Attributes)-1 {
			marker = "└─"
		}
		fmt.Fprintf(&sb, "%s Key attribute: %s\n", marker, strings.Join(attr, " "))
	}
	return sb.String()
}
