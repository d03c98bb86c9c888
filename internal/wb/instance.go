// Package wb implements the paper's core contribution: the webpage-briefing
// task and the Joint-WB model (§III-C) — a key attribute extractor E, a
// topic generator G and an informative section predictor P trained jointly
// with signal enhancement and exchange mechanisms — plus the pluggable
// document encoders (GloVe / MiniBERT / MiniBERTSUM) that all models and
// baselines share, and the hierarchical briefing output (Fig. 1).
package wb

import (
	"webbrief/internal/corpus"
	"webbrief/internal/textproc"
)

// Instance is one page in model-input form: the flattened token-id stream
// with per-sentence [CLS] markers and all supervision targets.
type Instance struct {
	Page     *corpus.Page
	IDs      []int // token ids including [CLS] positions
	Segments []int // BERTSUM interval segment ids
	ClsIdx   []int // index of each sentence's [CLS]
	SentOf   []int // sentence index of each token
	Tags     []int // gold BIO tags per token
	SentInfo []int // gold informative flag per sentence
	TopicIn  []int // decoder input: BOS + topic ids
	TopicOut []int // decoder target: topic ids + EOS
	Topic    []string
}

// NewInstance encodes a page against a vocabulary. maxTokens>0 truncates
// long documents (the paper splits 2048-token pages into 512-token
// sub-documents; truncation is the label-visible part of that step).
func NewInstance(p *corpus.Page, v *textproc.Vocab, maxTokens int) *Instance {
	e := p.Encode(maxTokens)
	inst := &Instance{
		Page:     p,
		IDs:      v.IDs(e.Words),
		Segments: e.Segments,
		ClsIdx:   e.ClsIdx,
		SentOf:   e.SentOf,
		Tags:     e.Tags,
		SentInfo: e.SentInfo,
		Topic:    p.Topic,
	}
	topicIDs := v.IDs(p.Topic)
	inst.TopicIn = append([]int{textproc.BosID}, topicIDs...)
	inst.TopicOut = append(append([]int{}, topicIDs...), textproc.EosID)
	return inst
}

// NewInstances encodes a batch of pages.
func NewInstances(pages []*corpus.Page, v *textproc.Vocab, maxTokens int) []*Instance {
	out := make([]*Instance, len(pages))
	for i, p := range pages {
		out[i] = NewInstance(p, v, maxTokens)
	}
	return out
}

// InstanceFromSentences builds an UNLABELLED inference instance from
// pre-normalised sentences — the path external pages take through
// cmd/wbrief. Supervision fields hold placeholder values and must not be
// used for training or scoring.
func InstanceFromSentences(sents [][]string, v *textproc.Vocab, maxTokens int) *Instance {
	inst := &Instance{
		TopicIn:  []int{textproc.BosID},
		TopicOut: []int{textproc.EosID},
	}
	for si, sent := range sents {
		inst.ClsIdx = append(inst.ClsIdx, len(inst.IDs))
		inst.IDs = append(inst.IDs, textproc.ClsID)
		inst.Tags = append(inst.Tags, corpus.TagO)
		inst.SentOf = append(inst.SentOf, si)
		inst.Segments = append(inst.Segments, si%2)
		for _, tok := range sent {
			inst.IDs = append(inst.IDs, v.ID(tok))
			inst.Tags = append(inst.Tags, corpus.TagO)
			inst.SentOf = append(inst.SentOf, si)
			inst.Segments = append(inst.Segments, si%2)
		}
		inst.SentInfo = append(inst.SentInfo, 0)
	}
	if maxTokens > 0 && len(inst.IDs) > maxTokens {
		inst.IDs = inst.IDs[:maxTokens]
		inst.Tags = inst.Tags[:maxTokens]
		inst.SentOf = inst.SentOf[:maxTokens]
		inst.Segments = inst.Segments[:maxTokens]
		last := inst.SentOf[len(inst.SentOf)-1]
		var cls []int
		for _, c := range inst.ClsIdx {
			if c < maxTokens {
				cls = append(cls, c)
			}
		}
		inst.ClsIdx = cls
		inst.SentInfo = inst.SentInfo[:last+1]
	}
	return inst
}

// MaxPageTokens is the most tokens of one page a served brief reads: the
// paper's document scale (PAPER.md: 2k-token docs). A longer page is briefed
// on its head — encode is linear in tokens and a serving batch runs in
// lockstep, so without a ceiling one legal request body holds a replica, and
// every batchmate, for as long as all its tokens take. wbserve and wbrief
// both truncate at it, so they brief a long page alike.
const MaxPageTokens = 2048

// InstanceFromHTML renders raw HTML through the full pipeline (DOM parse →
// visible lines → normalisation) and builds an unlabelled inference
// instance.
func InstanceFromHTML(html string, v *textproc.Vocab, maxTokens int) *Instance {
	sents := corpus.ReparseFromHTML(html)
	return InstanceFromSentences(sents, v, maxTokens)
}

// NumSents returns the number of sentences in the instance.
func (in *Instance) NumSents() int { return len(in.ClsIdx) }

// NumTokens returns the flattened token count.
func (in *Instance) NumTokens() int { return len(in.IDs) }
