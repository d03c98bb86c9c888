package wb

import (
	"webbrief/internal/corpus"
	"webbrief/internal/textproc"
)

// NewInstanceWP encodes a page at the SUBWORD level: every word is split
// into WordPiece pieces (§IV-A3 tokenises with BERT's WordPieces) and the
// word-level BIO labels are projected onto piece positions — a B word
// becomes B on its first piece and I on its continuations. The instance's
// vocabulary is the WordPiece subword vocabulary, so models built for
// word-level instances run unchanged on subword ones.
func NewInstanceWP(p *corpus.Page, wp *textproc.WordPiece, maxTokens int) *Instance {
	v := wp.Vocab()
	inst := &Instance{Page: p, Topic: p.Topic}
	for si, sent := range p.Sentences {
		inst.ClsIdx = append(inst.ClsIdx, len(inst.IDs))
		inst.IDs = append(inst.IDs, textproc.ClsID)
		inst.Tags = append(inst.Tags, corpus.TagO)
		inst.SentOf = append(inst.SentOf, si)
		inst.Segments = append(inst.Segments, si%2)
		pieces, wordSpans := wp.Tokenize(sent.Tokens)
		pieceTags := projectTags(sent, wordSpans, len(pieces))
		for pi, piece := range pieces {
			inst.IDs = append(inst.IDs, v.ID(piece))
			inst.Tags = append(inst.Tags, pieceTags[pi])
			inst.SentOf = append(inst.SentOf, si)
			inst.Segments = append(inst.Segments, si%2)
		}
		info := 0
		if sent.Informative {
			info = 1
		}
		inst.SentInfo = append(inst.SentInfo, info)
	}
	// Topic targets in subword space.
	topicPieces, _ := wp.Tokenize(p.Topic)
	topicIDs := v.IDs(topicPieces)
	inst.TopicIn = append([]int{textproc.BosID}, topicIDs...)
	inst.TopicOut = append(append([]int{}, topicIDs...), textproc.EosID)

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

// projectTags maps a sentence's word-level attribute span to piece-level
// BIO tags using the word→piece spans from WordPiece.Tokenize.
func projectTags(sent corpus.Sentence, wordSpans [][2]int, numPieces int) []int {
	tags := make([]int, numPieces)
	if sent.Attr == nil {
		return tags
	}
	for wi := sent.AttrStart; wi < sent.AttrEnd && wi < len(wordSpans); wi++ {
		span := wordSpans[wi]
		for pi := span[0]; pi < span[1]; pi++ {
			if wi == sent.AttrStart && pi == span[0] {
				tags[pi] = corpus.TagB
			} else {
				tags[pi] = corpus.TagI
			}
		}
	}
	return tags
}

// NewInstancesWP encodes a batch of pages at the subword level.
//
//wbcheck:ignore deadexport -- paper component: DESIGN.md §3 Extensions, `wb.NewInstanceWP` (WordPiece-level modelling path)
func NewInstancesWP(pages []*corpus.Page, wp *textproc.WordPiece, maxTokens int) []*Instance {
	out := make([]*Instance, len(pages))
	for i, p := range pages {
		out[i] = NewInstanceWP(p, wp, maxTokens)
	}
	return out
}

// LearnCorpusWordPiece fits a WordPiece vocabulary on a page set, the
// subword analogue of corpus.BuildVocab.
//
//wbcheck:ignore deadexport -- paper component: PAPER.md §2 WordPiece row, "vocab learned from the corpus"
func LearnCorpusWordPiece(pages []*corpus.Page, maxSize int) *textproc.WordPiece {
	return textproc.LearnWordPiece(corpus.WordCounts(pages), maxSize)
}
