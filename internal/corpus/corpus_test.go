package corpus

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"webbrief/internal/textproc"
)

func TestDomainsWellFormed(t *testing.T) {
	ds := Domains()
	if len(ds) != 24 {
		t.Fatalf("expected 24 domains, got %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Fatalf("duplicate domain %q", d.Name)
		}
		names[d.Name] = true
		if len(d.Topic) < 2 || len(d.Topic) > 4 {
			t.Errorf("%s: topic length %d", d.Name, len(d.Topic))
		}
		if len(d.Words) < 10 {
			t.Errorf("%s: only %d content words", d.Name, len(d.Words))
		}
		for _, a := range d.Attrs {
			if a.Label == "" {
				t.Errorf("%s: empty attribute label", d.Name)
			}
		}
		// Topic tokens must already be normalised (lowercase, no digits).
		for _, tok := range d.Topic {
			norm := textproc.Normalize(tok)
			if len(norm) != 1 || norm[0] != tok {
				t.Errorf("%s: topic token %q not normalised", d.Name, tok)
			}
		}
	}
}

func TestDomainByName(t *testing.T) {
	if d := DomainByName("books"); d == nil || d.Name != "books" {
		t.Fatal("DomainByName(books)")
	}
	if DomainByName("nope") != nil {
		t.Fatal("unknown domain should be nil")
	}
}

func TestGeneratePageStructure(t *testing.T) {
	d := DomainByName("books")
	p := generatePage(d, 7, rand.New(rand.NewSource(1)))
	if p.ID != "books-0007" || p.Domain != "books" {
		t.Fatalf("page identity: %+v", p)
	}
	attrs := p.Attributes()
	if len(attrs) != 4 {
		t.Fatalf("want 4 attributes (§IV-A1), got %d", len(attrs))
	}
	labels := map[string]bool{}
	for _, a := range attrs {
		labels[a.Label] = true
		if len(a.Value) == 0 {
			t.Fatalf("empty attribute value: %+v", a)
		}
	}
	for _, schema := range d.Attrs {
		if !labels[schema.Label] {
			t.Errorf("missing attribute %q", schema.Label)
		}
	}
	// Both informative and boilerplate sentences must be present.
	var inf, boil int
	for _, s := range p.Sentences {
		if s.Informative {
			inf++
		} else {
			boil++
		}
	}
	if inf == 0 || boil == 0 {
		t.Fatalf("inf=%d boil=%d", inf, boil)
	}
}

func TestGeneratePageDeterministic(t *testing.T) {
	d := DomainByName("jobs")
	a := generatePage(d, 0, rand.New(rand.NewSource(42)))
	b := generatePage(d, 0, rand.New(rand.NewSource(42)))
	if a.HTML != b.HTML {
		t.Fatal("page generation not deterministic")
	}
	if !reflect.DeepEqual(a.Sentences, b.Sentences) {
		t.Fatal("sentences not deterministic")
	}
}

func TestAttrSpanPointsAtValue(t *testing.T) {
	d := DomainByName("hotels")
	p := generatePage(d, 0, rand.New(rand.NewSource(3)))
	for _, s := range p.Sentences {
		if s.Attr == nil {
			continue
		}
		got := s.Tokens[s.AttrStart:s.AttrEnd]
		if !reflect.DeepEqual(got, s.Attr.Value) {
			t.Fatalf("span %v != value %v", got, s.Attr.Value)
		}
	}
}

// The central corpus invariant: rendering the generated HTML through the
// real pipeline (htmldom parse → visible lines → textproc normalise)
// reproduces exactly the token stream the labels were built on.
func TestHTMLRoundTripAlignsWithLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range Domains() {
		d := d
		for i := 0; i < 3; i++ {
			p := generatePage(&d, i, rng)
			got := ReparseFromHTML(p.HTML)
			if len(got) != len(p.Sentences) {
				t.Fatalf("%s: reparse produced %d sentences, labels have %d\nHTML:\n%s",
					p.ID, len(got), len(p.Sentences), p.HTML)
			}
			for si, sent := range p.Sentences {
				if !reflect.DeepEqual(got[si], sent.Tokens) {
					t.Fatalf("%s sentence %d:\n got  %v\n want %v", p.ID, si, got[si], sent.Tokens)
				}
			}
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	cfg := Config{Seed: 1, PagesPerDomain: 4, SeenDomains: 3, UnseenDomains: 2}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pages) != 20 {
		t.Fatalf("pages: %d", len(ds.Pages))
	}
	if len(ds.Seen) != 3 || len(ds.Unseen) != 2 {
		t.Fatalf("splits: %v / %v", ds.Seen, ds.Unseen)
	}
	if !ds.IsSeen(ds.Seen[0]) || ds.IsSeen(ds.Unseen[0]) {
		t.Fatal("IsSeen wrong")
	}
	seenPages := ds.PagesOf(ds.IsSeen)
	if len(seenPages) != 12 {
		t.Fatalf("seen pages: %d", len(seenPages))
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Seed: 1, PagesPerDomain: 1, SeenDomains: 20, UnseenDomains: 20}); err == nil {
		t.Fatal("too many domains should error")
	}
	if _, err := Generate(Config{Seed: 1, PagesPerDomain: 0, SeenDomains: 1, UnseenDomains: 1}); err == nil {
		t.Fatal("zero pages should error")
	}
}

func TestSplitProportions(t *testing.T) {
	cfg := Config{Seed: 1, PagesPerDomain: 10, SeenDomains: 2, UnseenDomains: 0}
	ds, _ := Generate(cfg)
	train, dev, test := Split(ds.Pages, 7)
	if len(train) != 16 || len(dev) != 2 || len(test) != 2 {
		t.Fatalf("split sizes: %d/%d/%d", len(train), len(dev), len(test))
	}
	// No page lost or duplicated.
	seen := map[string]int{}
	for _, p := range ds.Pages {
		seen[p.ID] = 0
	}
	for _, p := range append(append(append([]*Page{}, train...), dev...), test...) {
		seen[p.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("page %s appears %d times", id, n)
		}
	}
	// Deterministic.
	train2, _, _ := Split(ds.Pages, 7)
	if train[0].ID != train2[0].ID {
		t.Fatal("Split not deterministic")
	}
}

func TestEncodeBIOTags(t *testing.T) {
	d := DomainByName("cars")
	p := generatePage(d, 0, rand.New(rand.NewSource(9)))
	e := p.Encode(0)
	if len(e.Words) != len(e.Tags) || len(e.Words) != len(e.SentOf) || len(e.Words) != len(e.Segments) {
		t.Fatal("parallel arrays out of sync")
	}
	if len(e.ClsIdx) != len(p.Sentences) || len(e.SentInfo) != len(p.Sentences) {
		t.Fatal("per-sentence arrays out of sync")
	}
	// Every [CLS] position must hold the CLS token and TagO.
	for si, c := range e.ClsIdx {
		if e.Words[c] != textproc.ClsToken {
			t.Fatalf("ClsIdx[%d]=%d is %q", si, c, e.Words[c])
		}
		if e.Tags[c] != TagO {
			t.Fatal("CLS tagged inside a span")
		}
		if e.SentOf[c] != si {
			t.Fatal("SentOf wrong at CLS")
		}
	}
	// Exactly 4 B tags (4 attributes), I tags only follow B or I.
	bCount := 0
	for i, tag := range e.Tags {
		if tag == TagB {
			bCount++
		}
		if tag == TagI && (i == 0 || e.Tags[i-1] == TagO) {
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

// goldSpans reads the attribute value spans off e's BIO tags as [start, end)
// offsets into the flattened token stream.
func goldSpans(e *Encoded) [][2]int {
	var spans [][2]int
	for i := 0; i < len(e.Tags); i++ {
		if e.Tags[i] == TagB {
			j := i + 1
			for j < len(e.Tags) && e.Tags[j] == TagI {
				j++
			}
			spans = append(spans, [2]int{i, j})
			i = j - 1
		}
	}
	return spans
}

func TestEncodeGoldSpansMatchAttributes(t *testing.T) {
	d := DomainByName("movies")
	p := generatePage(d, 0, rand.New(rand.NewSource(10)))
	e := p.Encode(0)
	spans := goldSpans(e)
	if len(spans) != 4 {
		t.Fatalf("gold spans: %d", len(spans))
	}
	attrs := p.Attributes()
	for i, sp := range spans {
		got := e.Words[sp[0]:sp[1]]
		if !reflect.DeepEqual(got, attrs[i].Value) {
			t.Fatalf("span %d extracts %v want %v", i, got, attrs[i].Value)
		}
	}
}

func TestEncodeTruncation(t *testing.T) {
	d := DomainByName("music")
	p := generatePage(d, 0, rand.New(rand.NewSource(11)))
	full := p.Encode(0)
	small := p.Encode(10)
	if len(small.Words) != 10 {
		t.Fatalf("truncated length %d", len(small.Words))
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

func TestWordCountsAndVocab(t *testing.T) {
	cfg := Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 2, UnseenDomains: 0}
	ds, _ := Generate(cfg)
	counts := WordCounts(ds.Pages)
	foundBoiler := false
	for _, sent := range boilerplateSentences {
		if counts[sent[0]] > 0 {
			foundBoiler = true
			break
		}
	}
	if !foundBoiler {
		t.Fatal("boilerplate words missing from counts")
	}
	v := BuildVocab(ds.Pages)
	if !v.Has("book") && !v.Has("engineer") {
		t.Fatal("domain words missing from vocab")
	}
	// Topic tokens must be in the vocabulary (the generator must be able to
	// emit them).
	for _, d := range ds.Domains {
		for _, tok := range d.Topic {
			if !v.Has(tok) {
				t.Fatalf("topic token %q not in vocab", tok)
			}
		}
	}
}

func TestDomainStylesAssigned(t *testing.T) {
	ds := Domains()
	if len(domainStyles) != len(ds) {
		t.Fatalf("style table covers %d of %d domains", len(domainStyles), len(ds))
	}
	// The first 16 domains (seen pool) must never use StyleBare; the last 8
	// must include it — that asymmetry is what makes unseen-domain
	// extraction need adaptation.
	for i, d := range ds {
		if i < 16 && d.Style == StyleBare {
			t.Fatalf("seen-pool domain %s uses StyleBare", d.Name)
		}
	}
	bare := 0
	for _, d := range ds[16:] {
		if d.Style == StyleBare {
			bare++
		}
	}
	if bare == 0 {
		t.Fatal("no unseen-pool domain uses StyleBare")
	}
}

func TestAttrSentenceStyles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := *DomainByName("books")
	for style, want := range map[AttrStyle]func(s Sentence) bool{
		StyleColon: func(s Sentence) bool { return s.Tokens[s.AttrStart-1] == ":" },
		StyleDash:  func(s Sentence) bool { return s.Tokens[s.AttrStart-1] == "-" },
		StyleParen: func(s Sentence) bool {
			return s.AttrStart == 0 && s.Tokens[s.AttrEnd] == "(" && s.Tokens[len(s.Tokens)-1] == ")"
		},
		StyleBare: func(s Sentence) bool {
			return s.AttrStart >= 1 && s.Tokens[s.AttrStart-1] != ":" && s.Tokens[s.AttrStart-1] != "-"
		},
	} {
		d := base
		d.Style = style
		s := attrSentence(d.Attrs[0], &d, rng)
		if !want(s) {
			t.Errorf("style %d sentence malformed: %v (span %d:%d)", style, s.Tokens, s.AttrStart, s.AttrEnd)
		}
		if !reflect.DeepEqual(s.Tokens[s.AttrStart:s.AttrEnd], s.Attr.Value) {
			t.Errorf("style %d span does not cover value: %v", style, s)
		}
	}
}

func TestStyledPagesRoundTrip(t *testing.T) {
	// The HTML round trip must hold for every style, including paren
	// punctuation.
	rng := rand.New(rand.NewSource(99))
	for _, name := range []string{"pets", "events", "garden", "finance", "insurance", "restaurants", "art", "software"} {
		d := DomainByName(name)
		p := generatePage(d, 0, rng)
		got := ReparseFromHTML(p.HTML)
		if len(got) != len(p.Sentences) {
			t.Fatalf("%s: %d sentences reparsed, want %d", name, len(got), len(p.Sentences))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], p.Sentences[i].Tokens) {
				t.Fatalf("%s sentence %d: %v != %v", name, i, got[i], p.Sentences[i].Tokens)
			}
		}
	}
}

func TestConcatPagesProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := generatePage(DomainByName("books"), 0, rng)
	b := generatePage(DomainByName("jobs"), 0, rng)
	for _, prop := range []float64{0.5, 0.7, 0.3} {
		c := ConcatPages(a, b, prop)
		if c.Domain != "books" {
			t.Fatal("concat should keep first page's domain")
		}
		nA := clamp(int(prop*float64(len(a.Sentences))+0.5), 1, len(a.Sentences))
		for i := 0; i < nA; i++ {
			if !reflect.DeepEqual(c.Sentences[i].Tokens, a.Sentences[i].Tokens) {
				t.Fatal("prefix should come from a")
			}
		}
		if len(c.Sentences) <= nA {
			t.Fatal("no content from b")
		}
	}
}

func TestBoilerplateSharedAcrossDomains(t *testing.T) {
	// The same boilerplate pool must serve every domain — that is what
	// makes section prediction non-trivial.
	rng := rand.New(rand.NewSource(13))
	pb := generatePage(DomainByName("books"), 0, rng)
	boilB := map[string]bool{}
	for _, s := range pb.Sentences {
		if !s.Informative {
			boilB[strings.Join(s.Tokens, " ")] = true
		}
	}
	found := false
	for i := 0; i < 10 && !found; i++ {
		pj := generatePage(DomainByName("jobs"), i, rng)
		for _, s := range pj.Sentences {
			if !s.Informative && boilB[strings.Join(s.Tokens, " ")] {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no shared boilerplate between domains in 10 pages")
	}
}

func BenchmarkGeneratePage(b *testing.B) {
	d := DomainByName("books")
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generatePage(d, i, rng)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := generatePage(DomainByName("books"), 0, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Encode(0)
	}
}

// readJSONL decodes what ExportJSONL wrote, one record per line.
func readJSONL(t *testing.T, r io.Reader) []ExportRecord {
	t.Helper()
	var recs []ExportRecord
	for dec := json.NewDecoder(r); dec.More(); {
		var rec ExportRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestExportImportJSONLRoundTrip reads an export back record by record: every
// field a page carries — identity, topic, sentence tokens, informative flags,
// attribute labels, values, levels and sentence-local spans — must be there.
func TestExportImportJSONLRoundTrip(t *testing.T) {
	ds, _ := Generate(Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 3, UnseenDomains: 0})
	var buf bytes.Buffer
	if err := ExportJSONL(&buf, ds.Pages, true); err != nil {
		t.Fatal(err)
	}
	got := readJSONL(t, &buf)
	if len(got) != len(ds.Pages) {
		t.Fatalf("exported %d records, want %d", len(got), len(ds.Pages))
	}
	for i, p := range ds.Pages {
		g := got[i]
		if g.ID != p.ID || g.Domain != p.Domain || g.HTML != p.HTML {
			t.Fatalf("page %d identity mismatch", i)
		}
		if !reflect.DeepEqual(g.Topic, p.Topic) {
			t.Fatalf("page %d topic mismatch", i)
		}
		if len(g.Sentences) != len(p.Sentences) || len(g.Informative) != len(p.Sentences) {
			t.Fatalf("page %d: %d sentences, %d flags, want %d", i, len(g.Sentences), len(g.Informative), len(p.Sentences))
		}
		var attrs []ExportAttr
		for si, s := range p.Sentences {
			if !reflect.DeepEqual(g.Sentences[si], s.Tokens) || g.Informative[si] != s.Informative {
				t.Fatalf("page %d sentence %d mismatch", i, si)
			}
			if s.Attr != nil {
				attrs = append(attrs, ExportAttr{s.Attr.Label, s.Attr.Value, s.Attr.Level, si, s.AttrStart, s.AttrEnd})
			}
		}
		if !reflect.DeepEqual(g.Attributes, attrs) {
			t.Fatalf("page %d attributes mismatch:\n got %+v\nwant %+v", i, g.Attributes, attrs)
		}
	}
}

func TestExportJSONLWithoutHTML(t *testing.T) {
	ds, _ := Generate(Config{Seed: 1, PagesPerDomain: 1, SeenDomains: 1, UnseenDomains: 0})
	var buf bytes.Buffer
	if err := ExportJSONL(&buf, ds.Pages, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<html>") {
		t.Fatal("HTML leaked into markup-free export")
	}
	if got := readJSONL(t, &buf); got[0].HTML != "" {
		t.Fatal("HTML should be empty in a markup-free export")
	}
}

func TestComputeStats(t *testing.T) {
	ds, _ := Generate(Config{Seed: 1, PagesPerDomain: 5, SeenDomains: 4, UnseenDomains: 0})
	s := ComputeStats(ds.Pages)
	if s.Pages != 20 || s.Domains != 4 {
		t.Fatalf("counts: %+v", s)
	}
	if s.AvgAttributes != 4 {
		t.Fatalf("attributes/page should be exactly 4 (§IV-A1), got %v", s.AvgAttributes)
	}
	if s.AvgTopicLength < 2 || s.AvgTopicLength > 4 {
		t.Fatalf("topic length: %v", s.AvgTopicLength)
	}
	if s.AvgTokens <= 0 || s.StdTokens < 0 || s.VocabSize <= 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if s.InformativePct <= 0 || s.InformativePct >= 100 {
		t.Fatalf("informative share must be strictly between 0 and 100: %v", s.InformativePct)
	}
	if got := s.String(); !strings.Contains(got, "20 pages over 4 domains") {
		t.Fatalf("rendering: %q", got)
	}
	// Empty input is defined.
	if z := ComputeStats(nil); z.Pages != 0 {
		t.Fatal("empty stats")
	}
}
