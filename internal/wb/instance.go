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

// NewInstance encodes a labelled page against a vocabulary: the layout
// InstanceFromSentences gives the page's sentences, with the page's labels
// written onto the positions it kept. maxTokens>0 truncates long documents
// (the paper splits 2048-token pages into 512-token sub-documents;
// truncation is the label-visible part of that step).
func NewInstance(p *corpus.Page, v *textproc.Vocab, maxTokens int) *Instance {
	sents := make([][]string, len(p.Sentences))
	tags := make([][]int, len(p.Sentences))
	for si := range p.Sentences {
		sents[si], tags[si] = p.Sentences[si].Tokens, wordTags(&p.Sentences[si])
	}
	return labelled(p, sents, tags, p.Topic, v, maxTokens)
}

// wordTags is a sentence's BIO tags, one per word: B on the first word of its
// attribute value, I on the rest.
func wordTags(s *corpus.Sentence) []int {
	tags := make([]int, len(s.Tokens))
	if s.Attr == nil {
		return tags
	}
	for ti := s.AttrStart; ti < min(s.AttrEnd, len(tags)); ti++ {
		tags[ti] = corpus.TagI
		if ti == s.AttrStart {
			tags[ti] = corpus.TagB
		}
	}
	return tags
}

// labelled lays p's sentences out through InstanceFromSentences — sents[si]
// is sentence si's tokens, words or their pieces — and writes p's labels onto
// the positions the layout kept: the head of each kept sentence's BIO tags
// (tags[si], one per token of sents[si]), its informative flag, and the
// topic, whose tokens are topic.
func labelled(p *corpus.Page, sents [][]string, tags [][]int, topic []string, v *textproc.Vocab, maxTokens int) *Instance {
	inst := InstanceFromSentences(sents, v, maxTokens)
	inst.Page, inst.Topic = p, p.Topic
	for si, cls := range inst.ClsIdx {
		copy(inst.Tags[cls+1:min(cls+1+len(tags[si]), len(inst.Tags))], tags[si])
		if p.Sentences[si].Informative {
			inst.SentInfo[si] = 1
		}
	}
	topicIDs := v.IDs(topic)
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

// PageTokens is the length of sents' layout before any cut: each sentence's
// [CLS] and its words.
func PageTokens(sents [][]string) int {
	n := 0
	for _, sent := range sents {
		n += 1 + len(sent)
	}
	return n
}

// InstanceFromSentences lays pre-normalised sentences out as the model reads
// a page (§III-C), and is the only code that does: a [CLS] opens each
// sentence, BERTSUM segment ids alternate by sentence, and maxTokens>0 keeps
// the stream's head. Every page takes this path — external pages through
// InstanceFromHTML and serving, labelled pages through NewInstance (and
// NewInstanceWP at the subword level). On its own it builds an UNLABELLED
// inference instance: supervision fields hold placeholder values and must
// not be used for training or scoring.
func InstanceFromSentences(sents [][]string, v *textproc.Vocab, maxTokens int) *Instance {
	n := PageTokens(sents)
	if maxTokens > 0 {
		n = min(n, maxTokens)
	}
	inst := &Instance{
		IDs:      make([]int, 0, n),
		Segments: make([]int, 0, n),
		SentOf:   make([]int, 0, n),
		Tags:     make([]int, n), // all corpus.TagO
		TopicIn:  []int{textproc.BosID},
		TopicOut: []int{textproc.EosID},
	}
	for si, sent := range sents {
		if len(inst.IDs) == n {
			break
		}
		inst.ClsIdx = append(inst.ClsIdx, len(inst.IDs))
		inst.IDs = append(inst.IDs, textproc.ClsID)
		inst.SentOf = append(inst.SentOf, si)
		inst.Segments = append(inst.Segments, si%2)
		for _, tok := range sent[:min(len(sent), n-len(inst.IDs))] {
			inst.IDs = append(inst.IDs, v.ID(tok))
			inst.SentOf = append(inst.SentOf, si)
			inst.Segments = append(inst.Segments, si%2)
		}
	}
	inst.SentInfo = make([]int, len(inst.ClsIdx))
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
