package wb

import (
	"slices"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/textproc"
)

// TestTrainingAndServingLayoutsAgree: a page trains through NewInstance
// (corpus.Page.Encode) and serves through InstanceFromSentences. Both must
// lay the same sentences out the same way (§III-C): one [CLS] ahead of each
// sentence, BERTSUM's alternating segments, each token's sentence, and one
// informative flag per sentence that survives truncation — untruncated, cut
// inside a sentence, cut exactly at a [CLS] and just past one.
func TestTrainingAndServingLayoutsAgree(t *testing.T) {
	sents := [][]string{{"price", "is", "low"}, {"great", "book"}, {"buy", "now", "today"}, {"unknownword"}}
	page := &corpus.Page{Topic: []string{"book"}}
	v := textproc.NewVocab()
	for i, s := range sents {
		page.Sentences = append(page.Sentences, corpus.Sentence{Tokens: s})
		for _, tok := range s {
			if i < len(sents)-1 { // the last sentence's word stays out of the vocabulary
				v.Add(tok)
			}
		}
	}
	// [CLS] price is low [CLS] great book [CLS] buy now today [CLS] unknownword
	for _, tc := range []struct {
		name      string
		maxTokens int
		tokens    int
		cls       []int
	}{
		{"no truncation", 0, 13, []int{0, 4, 7, 11}},
		{"limit past the page", 64, 13, []int{0, 4, 7, 11}},
		{"cut inside a sentence", 6, 6, []int{0, 4}},
		{"cut exactly at a [CLS]", 7, 7, []int{0, 4}},
		{"cut just past a [CLS]", 8, 8, []int{0, 4, 7}},
	} {
		train := NewInstance(page, v, tc.maxTokens)
		serve := InstanceFromSentences(sents, v, tc.maxTokens)
		if !slices.Equal(train.IDs, serve.IDs) || len(serve.IDs) != tc.tokens || serve.IDs[0] != textproc.ClsID {
			t.Errorf("%s: ids train %v serve %v, want %d tokens led by [CLS]", tc.name, train.IDs, serve.IDs, tc.tokens)
		}
		if !slices.Equal(train.ClsIdx, serve.ClsIdx) || !slices.Equal(serve.ClsIdx, tc.cls) {
			t.Errorf("%s: [CLS] positions train %v serve %v, want %v", tc.name, train.ClsIdx, serve.ClsIdx, tc.cls)
		}
		if !slices.Equal(train.Segments, serve.Segments) || !slices.Equal(train.SentOf, serve.SentOf) {
			t.Errorf("%s: segments train %v serve %v, sentence of train %v serve %v",
				tc.name, train.Segments, serve.Segments, train.SentOf, serve.SentOf)
		}
		if len(train.SentInfo) != len(serve.SentInfo) || len(serve.SentInfo) != len(tc.cls) {
			t.Errorf("%s: %d informative flags in training, %d serving, want %d", tc.name, len(train.SentInfo), len(serve.SentInfo), len(tc.cls))
		}
	}
}
