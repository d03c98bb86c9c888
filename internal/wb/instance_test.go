package wb

import (
	"slices"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/eval"
	"webbrief/internal/textproc"
)

// TestTrainingAndServingLayoutsAgree: a page trains through NewInstance and
// serves through InstanceFromSentences. Both must lay the same sentences out
// the same way (§III-C): one [CLS] ahead of each sentence, BERTSUM's
// alternating segments, each token's sentence, and one informative flag per
// sentence that survives truncation — untruncated, cut inside a sentence, cut
// exactly at a [CLS], just past one and inside an attribute value. The
// labels NewInstance writes over that layout are cut with it: at every row
// its tags and informative flags are the head of the uncut page's.
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
	// Two attribute values, "great book" and "now today", in an informative
	// sentence and a plain one.
	page.Sentences[1].Attr = &corpus.AttrInstance{Label: "title", Value: sents[1]}
	page.Sentences[1].AttrStart, page.Sentences[1].AttrEnd = 0, 2
	page.Sentences[2].Attr = &corpus.AttrInstance{Label: "when", Value: sents[2][1:]}
	page.Sentences[2].AttrStart, page.Sentences[2].AttrEnd = 1, 3
	page.Sentences[2].Informative = true
	// [CLS] price is low [CLS] great book [CLS] buy now today [CLS] unknownword
	uncut := NewInstance(page, v, 0)
	wantTags := []int{0, 0, 0, 0, 0, corpus.TagB, corpus.TagI, 0, 0, corpus.TagB, corpus.TagI, 0, 0}
	if !slices.Equal(uncut.Tags, wantTags) || !slices.Equal(uncut.SentInfo, []int{0, 0, 1, 0}) {
		t.Fatalf("uncut labels: tags %v informative %v, want %v and [0 0 1 0]", uncut.Tags, uncut.SentInfo, wantTags)
	}
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
		{"cut inside an attribute value", 10, 10, []int{0, 4, 7}},
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
		if !slices.Equal(train.Tags, uncut.Tags[:tc.tokens]) || !slices.Equal(train.SentInfo, uncut.SentInfo[:len(tc.cls)]) {
			t.Errorf("%s: tags %v informative %v, want the uncut page's heads %v and %v",
				tc.name, train.Tags, train.SentInfo, uncut.Tags[:tc.tokens], uncut.SentInfo[:len(tc.cls)])
		}
	}
}

// generatedPage is the first page the seeded corpus generates for domain,
// with a vocabulary built over it alone, so every token id maps back to its
// word.
func generatedPage(t testing.TB, domain string, seed int64) (*corpus.Page, *textproc.Vocab) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: seed, PagesPerDomain: 1, SeenDomains: len(corpus.Domains())})
	if err != nil {
		t.Fatal(err)
	}
	pages := ds.PagesOf(func(d string) bool { return d == domain })
	return pages[0], corpus.BuildVocab(pages)
}

func TestNewInstanceBIOTags(t *testing.T) {
	p, v := generatedPage(t, "cars", 9)
	e := NewInstance(p, v, 0)
	if len(e.IDs) != len(e.Tags) || len(e.IDs) != len(e.SentOf) || len(e.IDs) != len(e.Segments) {
		t.Fatal("parallel arrays out of sync")
	}
	if len(e.ClsIdx) != len(p.Sentences) || len(e.SentInfo) != len(p.Sentences) {
		t.Fatal("per-sentence arrays out of sync")
	}
	// Every [CLS] position must hold the CLS token and TagO.
	for si, c := range e.ClsIdx {
		if e.IDs[c] != textproc.ClsID {
			t.Fatalf("ClsIdx[%d]=%d is %q", si, c, v.Token(e.IDs[c]))
		}
		if e.Tags[c] != corpus.TagO {
			t.Fatal("CLS tagged inside a span")
		}
		if e.SentOf[c] != si {
			t.Fatal("SentOf wrong at CLS")
		}
	}
	// Exactly 4 B tags (4 attributes), I tags only follow B or I.
	bCount := 0
	for i, tag := range e.Tags {
		if tag == corpus.TagB {
			bCount++
		}
		if tag == corpus.TagI && (i == 0 || e.Tags[i-1] == corpus.TagO) {
			t.Fatal("orphan I tag")
		}
	}
	if bCount != 4 {
		t.Fatalf("B tags: %d", bCount)
	}
	// Segment ids must alternate with the sentence parity.
	for i, seg := range e.Segments {
		if seg != e.SentOf[i]%2 {
			t.Fatal("segment parity wrong")
		}
	}
}

func TestNewInstanceGoldSpansMatchAttributes(t *testing.T) {
	p, v := generatedPage(t, "movies", 10)
	e := NewInstance(p, v, 0)
	spans := eval.SpansFromBIO(e.Tags)
	if len(spans) != 4 {
		t.Fatalf("gold spans: %d", len(spans))
	}
	attrs := p.Attributes()
	for i, sp := range spans {
		got := v.Tokens(e.IDs[sp.Start:sp.End])
		if !slices.Equal(got, attrs[i].Value) {
			t.Fatalf("span %d extracts %v want %v", i, got, attrs[i].Value)
		}
	}
}

func TestNewInstanceTruncation(t *testing.T) {
	p, v := generatedPage(t, "music", 11)
	full := NewInstance(p, v, 0)
	small := NewInstance(p, v, 10)
	if len(small.IDs) != 10 {
		t.Fatalf("truncated length %d", len(small.IDs))
	}
	if len(small.SentInfo) > len(full.SentInfo) {
		t.Fatal("truncation grew sentence labels")
	}
	for _, c := range small.ClsIdx {
		if c >= 10 {
			t.Fatal("ClsIdx beyond truncation")
		}
	}
	if len(small.SentInfo) != small.SentOf[len(small.SentOf)-1]+1 {
		t.Fatal("SentInfo length mismatch after truncation")
	}
}

func BenchmarkNewInstance(b *testing.B) {
	p, v := generatedPage(b, "books", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewInstance(p, v, 0)
	}
}
