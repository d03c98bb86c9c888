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
	sents := make([][]string, len(p.Sentences))
	tags := make([][]int, len(p.Sentences))
	for si, sent := range p.Sentences {
		pieces, wordSpans := wp.Tokenize(sent.Tokens)
		sents[si], tags[si] = pieces, projectTags(sent, wordSpans, len(pieces))
	}
	// Topic targets in subword space.
	topicPieces, _ := wp.Tokenize(p.Topic)
	return labelled(p, sents, tags, topicPieces, wp.Vocab(), maxTokens)
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
