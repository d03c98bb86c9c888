package corpus

import (
	"fmt"
	"math/rand"

	"webbrief/internal/htmldom"
	"webbrief/internal/textproc"
)

// Config controls dataset generation.
type Config struct {
	Seed           int64
	PagesPerDomain int
	SeenDomains    int // first N domains are "seen" (teacher training)
	UnseenDomains  int // next M domains are "unseen" (distillation target)
}

// Dataset is a generated corpus with its domain split.
type Dataset struct {
	Config  Config
	Domains []Domain
	Seen    []string // seen domain names
	Unseen  []string // unseen domain names
	Pages   []*Page  // all pages, grouped by domain in generation order
}

// Generate builds the corpus deterministically from cfg.
func Generate(cfg Config) (*Dataset, error) {
	all := Domains()
	if cfg.SeenDomains+cfg.UnseenDomains > len(all) {
		return nil, fmt.Errorf("corpus: %d+%d domains requested, only %d defined",
			cfg.SeenDomains, cfg.UnseenDomains, len(all))
	}
	if cfg.PagesPerDomain <= 0 {
		return nil, fmt.Errorf("corpus: PagesPerDomain must be positive")
	}
	ds := &Dataset{Config: cfg, Domains: all[:cfg.SeenDomains+cfg.UnseenDomains]}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range ds.Domains {
		d := &ds.Domains[i]
		if i < cfg.SeenDomains {
			ds.Seen = append(ds.Seen, d.Name)
		} else {
			ds.Unseen = append(ds.Unseen, d.Name)
		}
		for j := 0; j < cfg.PagesPerDomain; j++ {
			ds.Pages = append(ds.Pages, GeneratePage(d, j, rng))
		}
	}
	return ds, nil
}

// IsSeen reports whether the named domain is in the seen split.
func (d *Dataset) IsSeen(domain string) bool {
	for _, s := range d.Seen {
		if s == domain {
			return true
		}
	}
	return false
}

// PagesOf returns pages filtered by a predicate on the domain name.
func (d *Dataset) PagesOf(keep func(domain string) bool) []*Page {
	var out []*Page
	for _, p := range d.Pages {
		if keep(p.Domain) {
			out = append(out, p)
		}
	}
	return out
}

// Split shuffles pages with the dataset seed and partitions them into the
// paper's 80%-10%-10% train/dev/test split.
func Split(pages []*Page, seed int64) (train, dev, test []*Page) {
	shuffled := append([]*Page{}, pages...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nTrain := len(shuffled) * 8 / 10
	nDev := len(shuffled) / 10
	return shuffled[:nTrain], shuffled[nTrain : nTrain+nDev], shuffled[nTrain+nDev:]
}

// BIO tag values for attribute extraction.
const (
	TagO = 0
	TagB = 1
	TagI = 2
	// NumTags is the size of the tag set.
	NumTags = 3
)

// Encoded is a page flattened into the model input representation of
// §III-C: one token stream with a [CLS] token opening each sentence,
// parallel BIO attribute tags, per-token sentence indices, and per-sentence
// informative labels.
type Encoded struct {
	Page     *Page
	Words    []string // flat tokens including [CLS] markers
	SentOf   []int    // sentence index of each token
	ClsIdx   []int    // position of each sentence's [CLS]
	Tags     []int    // BIO per token ([CLS] positions are TagO)
	Levels   []int    // hierarchy level of the token's attribute (see AttrInstance.Level); 0 where Tags is TagO
	SentInfo []int    // 1 if sentence is informative
	Segments []int    // BERTSUM alternating interval segment ids
}

// Encode flattens the page. maxTokens>0 truncates the stream (the paper
// zero-pads/truncates documents to a fixed length; truncation is the part
// that affects labels).
func (p *Page) Encode(maxTokens int) *Encoded {
	e := &Encoded{Page: p}
	for si, s := range p.Sentences {
		e.ClsIdx = append(e.ClsIdx, len(e.Words))
		e.Words = append(e.Words, textproc.ClsToken)
		e.Tags = append(e.Tags, TagO)
		e.Levels = append(e.Levels, 0)
		e.SentOf = append(e.SentOf, si)
		e.Segments = append(e.Segments, si%2)
		for ti, tok := range s.Tokens {
			e.Words = append(e.Words, tok)
			e.SentOf = append(e.SentOf, si)
			e.Segments = append(e.Segments, si%2)
			tag, level := TagO, 0
			if s.Attr != nil && ti >= s.AttrStart && ti < s.AttrEnd {
				level = s.Attr.Level
				if ti == s.AttrStart {
					tag = TagB
				} else {
					tag = TagI
				}
			}
			e.Tags = append(e.Tags, tag)
			e.Levels = append(e.Levels, level)
		}
		info := 0
		if s.Informative {
			info = 1
		}
		e.SentInfo = append(e.SentInfo, info)
	}
	if maxTokens > 0 && len(e.Words) > maxTokens {
		e.Words = e.Words[:maxTokens]
		e.Tags = e.Tags[:maxTokens]
		e.Levels = e.Levels[:maxTokens]
		e.SentOf = e.SentOf[:maxTokens]
		e.Segments = e.Segments[:maxTokens]
		lastSent := e.SentOf[len(e.SentOf)-1]
		var cls []int
		for _, c := range e.ClsIdx {
			if c < maxTokens {
				cls = append(cls, c)
			}
		}
		e.ClsIdx = cls
		e.SentInfo = e.SentInfo[:lastSent+1]
	}
	return e
}

// WordCounts accumulates token frequencies over pages (topic tokens
// included), the input to vocabulary building.
func WordCounts(pages []*Page) map[string]int {
	counts := make(map[string]int)
	for _, p := range pages {
		for _, s := range p.Sentences {
			for _, tok := range s.Tokens {
				counts[tok]++
			}
		}
		for _, tok := range p.Topic {
			counts[tok]++
		}
	}
	return counts
}

// BuildVocab constructs the word vocabulary over pages with no frequency
// cutoff: the synthetic corpus has no hapax noise worth pruning.
func BuildVocab(pages []*Page) *textproc.Vocab {
	return textproc.BuildVocab(WordCounts(pages), 1)
}

// ReparseFromHTML re-derives a page's sentence token stream by parsing its
// HTML and running the textproc pipeline — the path an external page takes.
// It is used by tests to assert that generated labels align with what the
// rendering pipeline produces, and by the CLI to process arbitrary pages.
func ReparseFromHTML(html string) [][]string {
	doc := htmldom.Parse(html)
	return textproc.NormalizeDocument(htmldom.VisibleLines(doc))
}

// ConcatPages builds the synthetic two-topic page of the sensitivity study
// (§IV-D): the first propA proportion of content comes from page a, the
// remaining 1-propA proportion from page b, by sentence count. The result
// keeps a's topic as its nominal ground truth; the study measures which
// source a model's prediction actually follows (position vs. length).
func ConcatPages(a, b *Page, propA float64) *Page {
	nA := clamp(int(propA*float64(len(a.Sentences))+0.5), 1, len(a.Sentences))
	nB := clamp(int((1-propA)*float64(len(b.Sentences))+0.5), 1, len(b.Sentences))
	sents := make([]Sentence, 0, nA+nB)
	sents = append(sents, a.Sentences[:nA]...)
	sents = append(sents, b.Sentences[:nB]...)
	return &Page{
		ID:        a.ID + "+" + b.ID,
		Domain:    a.Domain,
		Topic:     append([]string{}, a.Topic...),
		Sentences: sents,
	}
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
