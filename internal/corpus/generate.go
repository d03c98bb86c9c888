package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"webbrief/internal/textproc"
)

// AttrInstance is one labelled key attribute on a page: its schema label and
// the normalised tokens of its value. Level distinguishes the WB hierarchy
// levels of §I: 1 is a high-level attribute (a more precise category of the
// page, e.g. "nonfiction books"); 2 (the default for plain pages, stored as
// 0 for compatibility) is a detailed attribute (title, price, ...).
type AttrInstance struct {
	Label string
	Value []string
	Level int
}

// Sentence is one sentence of a page in normalised token space, with its
// informative-section label and, if it carries a key attribute, the value's
// token span [AttrStart, AttrEnd).
type Sentence struct {
	Tokens      []string
	Informative bool
	Attr        *AttrInstance
	AttrStart   int
	AttrEnd     int
}

// Page is one labelled synthetic webpage.
type Page struct {
	ID        string
	Domain    string
	Topic     []string // ground-truth topic phrase tokens
	HTML      string   // full markup; rendering it reproduces Sentences
	Sentences []Sentence
}

// Attributes returns the page's key attributes in document order.
func (p *Page) Attributes() []AttrInstance {
	var out []AttrInstance
	for _, s := range p.Sentences {
		if s.Attr != nil {
			out = append(out, *s.Attr)
		}
	}
	return out
}

// genValue synthesises an attribute value of the given kind as normalised
// tokens.
func genValue(kind AttrKind, d *Domain, rng *rand.Rand) []string {
	switch kind {
	case KindMoney:
		return []string{"$", textproc.DigitToken, ".", textproc.DigitToken}
	case KindNumber:
		return []string{textproc.DigitToken}
	case KindName:
		return []string{
			firstNames[rng.Intn(len(firstNames))],
			lastNames[rng.Intn(len(lastNames))],
		}
	default: // KindPhrase
		n := 1 + rng.Intn(3)
		seen := make(map[int]bool, n)
		toks := make([]string, 0, n)
		for len(toks) < n {
			i := rng.Intn(len(d.Words))
			if seen[i] {
				continue
			}
			seen[i] = true
			toks = append(toks, d.Words[i])
		}
		return toks
	}
}

// attrSentence builds the sentence carrying an attribute, phrased in the
// domain's style: "label : value", "value ( label )", "label - value" or
// bare "label value".
func attrSentence(schema AttrSchema, d *Domain, rng *rand.Rand) Sentence {
	value := genValue(schema.Kind, d, rng)
	labelToks := textproc.Normalize(schema.Label)
	var toks []string
	var start int
	switch d.Style {
	case StyleParen:
		start = 0
		toks = append(append([]string{}, value...), "(")
		toks = append(toks, labelToks...)
		toks = append(toks, ")")
	case StyleDash:
		toks = append(append([]string{}, labelToks...), "-")
		start = len(toks)
		toks = append(toks, value...)
	case StyleBare:
		toks = append([]string{}, labelToks...)
		start = len(toks)
		toks = append(toks, value...)
	default: // StyleColon
		toks = append(append([]string{}, labelToks...), ":")
		start = len(toks)
		toks = append(toks, value...)
	}
	return Sentence{
		Tokens:      toks,
		Informative: true,
		Attr:        &AttrInstance{Label: schema.Label, Value: value},
		AttrStart:   start,
		AttrEnd:     start + len(value),
	}
}

// fillerSentence builds an informative filler sentence from the domain
// vocabulary, e.g. "the hardcover is popular with visitors".
func fillerSentence(d *Domain, rng *rand.Rand) Sentence {
	conn := fillerConnectives[rng.Intn(len(fillerConnectives))]
	toks := textproc.Normalize(conn[0])
	toks = append(toks, d.Words[rng.Intn(len(d.Words))])
	if rng.Intn(2) == 0 {
		toks = append(toks, d.Words[rng.Intn(len(d.Words))])
	}
	toks = append(toks, textproc.Normalize(conn[1])...)
	if rng.Intn(3) == 0 {
		toks = append(toks, ".")
	}
	return Sentence{Tokens: toks, Informative: true}
}

// boilerplate returns one shared non-informative sentence.
func boilerplate(rng *rand.Rand) Sentence {
	src := boilerplateSentences[rng.Intn(len(boilerplateSentences))]
	return Sentence{Tokens: append([]string{}, src...), Informative: false}
}

// buildParts assembles a page's four structural blocks.
func buildParts(d *Domain, rng *rand.Rand) (nav, main, aside, footer []Sentence) {
	for n := 1 + rng.Intn(2); n > 0; n-- {
		nav = append(nav, boilerplate(rng))
	}
	// Main: the four attribute sentences interleaved with filler.
	for _, schema := range d.Attrs {
		main = append(main, attrSentence(schema, d, rng))
		for n := rng.Intn(2); n > 0; n-- {
			main = append(main, fillerSentence(d, rng))
		}
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		main = append(main, fillerSentence(d, rng))
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		aside = append(aside, boilerplate(rng))
	}
	for n := 2 + rng.Intn(2); n > 0; n-- {
		footer = append(footer, boilerplate(rng))
	}
	return nav, main, aside, footer
}

// assemblePage finalises a page from its blocks.
func assemblePage(d *Domain, id int, nav, main, aside, footer []Sentence, rng *rand.Rand) *Page {
	var sentences []Sentence
	sentences = append(sentences, nav...)
	sentences = append(sentences, main...)
	sentences = append(sentences, aside...)
	sentences = append(sentences, footer...)
	p := &Page{
		ID:        fmt.Sprintf("%s-%04d", d.Name, id),
		Domain:    d.Name,
		Topic:     append([]string{}, d.Topic...),
		Sentences: sentences,
	}
	p.HTML = renderHTML(d, nav, main, aside, footer, rng)
	return p
}

// generatePage builds one labelled page for domain d. The id only feeds the
// page identifier; all randomness comes from rng, so generation is
// deterministic for a fixed seed.
func generatePage(d *Domain, id int, rng *rand.Rand) *Page {
	nav, main, aside, footer := buildParts(d, rng)
	return assemblePage(d, id, nav, main, aside, footer, rng)
}

// categoryQualifiers combine with a domain word to form the high-level
// category attribute of hierarchical pages ("classic novel", "featured
// suite").
var categoryQualifiers = []string{"featured", "classic", "premium", "popular", "seasonal"}

// GeneratePageHier builds a page with an extra HIGH-LEVEL key attribute — a
// category phrase placed at the top of the main content, the "more precise
// topic or category of the webpage" of §I's hierarchy. The category
// sentence is always colon-style ("category : classic novel"), like real
// breadcrumb lines. Detailed attributes keep Level 0; the category carries
// Level 1.
func GeneratePageHier(d *Domain, id int, rng *rand.Rand) *Page {
	nav, main, aside, footer := buildParts(d, rng)
	value := []string{
		categoryQualifiers[rng.Intn(len(categoryQualifiers))],
		d.Words[rng.Intn(len(d.Words))],
	}
	toks := []string{"category", ":"}
	cat := Sentence{
		Tokens:      append(toks, value...),
		Informative: true,
		Attr:        &AttrInstance{Label: "category", Value: value, Level: 1},
		AttrStart:   len(toks),
		AttrEnd:     len(toks) + len(value),
	}
	main = append([]Sentence{cat}, main...)
	return assemblePage(d, id, nav, main, aside, footer, rng)
}

// surface converts normalised tokens to the display text written into the
// HTML. <digit> placeholders become concrete numbers; everything else is
// joined with spaces (textproc.Normalize re-splits punctuation, so the
// round trip is exact).
func surface(toks []string, rng *rand.Rand) string {
	out := make([]string, len(toks))
	for i, tok := range toks {
		if tok == textproc.DigitToken {
			out[i] = fmt.Sprintf("%d", 1+rng.Intn(9999))
		} else {
			out[i] = tok
		}
	}
	return strings.Join(out, " ")
}

// renderHTML serialises the page structure to markup. Every sentence is
// emitted inside its own block element so htmldom.VisibleLines yields
// exactly one line per sentence; a hidden tracking div and script/style
// content exercise the renderer's invisibility rules without affecting
// labels.
func renderHTML(d *Domain, nav, main, aside, footer []Sentence, rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", strings.Join(d.Topic, " "))
	b.WriteString("<style>.price { font-weight: bold } nav { color: blue }</style>\n")
	b.WriteString("<script>var tracking = { visits: 1 };</script>\n")
	b.WriteString("</head>\n<body>\n<nav>\n")
	for _, s := range nav {
		fmt.Fprintf(&b, "  <div class=\"nav-item\">%s</div>\n", surface(s.Tokens, rng))
	}
	b.WriteString("</nav>\n<main>\n")
	for i, s := range main {
		tag := "p"
		if i == 0 {
			tag = "h1"
		} else if s.Attr != nil {
			tag = "div"
		}
		fmt.Fprintf(&b, "  <%s>%s</%s>\n", tag, surface(s.Tokens, rng), tag)
	}
	b.WriteString("</main>\n<aside>\n")
	for _, s := range aside {
		fmt.Fprintf(&b, "  <div class=\"ad\">%s</div>\n", surface(s.Tokens, rng))
	}
	b.WriteString("</aside>\n")
	b.WriteString("<div style=\"display:none\">tracking pixel content</div>\n")
	b.WriteString("<footer>\n")
	for _, s := range footer {
		fmt.Fprintf(&b, "  <div>%s</div>\n", surface(s.Tokens, rng))
	}
	b.WriteString("</footer>\n</body>\n</html>\n")
	return b.String()
}
