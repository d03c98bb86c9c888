package htmldom

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func collect(src string) []Token {
	z := NewTokenizer(src)
	var toks []Token
	for {
		tok, ok := z.Next()
		if !ok {
			return toks
		}
		toks = append(toks, tok)
	}
}

func TestTokenizerBasicSequence(t *testing.T) {
	toks := collect(`<div class="a">hi</div>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "div" {
		t.Fatalf("start: %+v", toks[0])
	}
	if !reflect.DeepEqual(toks[0].Attrs, []Attribute{{Name: "class", Value: "a"}}) {
		t.Fatalf("attr: %+v", toks[0].Attrs)
	}
	if toks[1].Type != TextToken || toks[1].Data != "hi" {
		t.Fatalf("text: %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "div" {
		t.Fatalf("end: %+v", toks[2])
	}
}

func TestTokenizerAttributeQuoting(t *testing.T) {
	toks := collect(`<a href="x" title='y y' data-k=z disabled>`)
	want := []Attribute{{"href", "x"}, {"title", "y y"}, {"data-k", "z"}, {"disabled", ""}}
	if !reflect.DeepEqual(toks[0].Attrs, want) {
		t.Errorf("attrs %+v, want %+v", toks[0].Attrs, want)
	}
}

func TestTokenizerUppercaseTagsLowered(t *testing.T) {
	toks := collect(`<DIV ID="x">t</DIV>`)
	if toks[0].Data != "div" || toks[2].Data != "div" {
		t.Fatalf("tags not lowercased: %+v", toks)
	}
	if len(toks[0].Attrs) != 1 || toks[0].Attrs[0].Name != "id" {
		t.Fatal("attr names not lowercased")
	}
}

func TestTokenizerComments(t *testing.T) {
	toks := collect(`a<!-- secret <div> -->b`)
	if len(toks) != 3 || toks[1].Type != CommentToken {
		t.Fatalf("comment: %+v", toks)
	}
	if !strings.Contains(toks[1].Data, "secret <div>") {
		t.Fatalf("comment content: %q", toks[1].Data)
	}
}

func TestTokenizerDoctype(t *testing.T) {
	toks := collect(`<!DOCTYPE html><p>x</p>`)
	if toks[0].Type != DoctypeToken {
		t.Fatalf("doctype: %+v", toks[0])
	}
}

func TestTokenizerScriptRawText(t *testing.T) {
	toks := collect(`<script>if (a < b) { x = "<div>"; }</script><p>after</p>`)
	if toks[0].Type != StartTagToken || toks[0].Data != "script" {
		t.Fatalf("script start: %+v", toks[0])
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, `a < b`) {
		t.Fatalf("script body should be raw text: %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Fatalf("script end: %+v", toks[2])
	}
}

func TestTokenizerSelfClosing(t *testing.T) {
	toks := collect(`<br/><img src="x"/>`)
	if toks[0].Type != SelfClosingTagToken || toks[1].Type != SelfClosingTagToken {
		t.Fatalf("self closing: %+v", toks)
	}
}

func TestTokenizerEntities(t *testing.T) {
	toks := collect(`Tom &amp; Jerry &lt;3 &#65; &#x42; &unknown; &copy;`)
	got := toks[0].Data
	want := `Tom & Jerry <3 A B &unknown; ©`
	if got != want {
		t.Fatalf("entities: %q want %q", got, want)
	}
}

func TestTokenizerNeverPanicsProperty(t *testing.T) {
	// Tag soup must never panic and must always terminate.
	f := func(s string) bool {
		_ = collect(s)
		_ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Hand-picked nasties.
	for _, s := range []string{
		"<", "<>", "</", "<div", "<div attr", `<div a="`, "<!--", "<!",
		"</div></div>", "<script>", "<p><p><p>", "&#xZZ;", "&;", "a<b>c",
	} {
		_ = collect(s)
		_ = Parse(s)
	}
}

func TestParseTreeShape(t *testing.T) {
	doc := Parse(`<html><body><div id="main"><p>one</p><p>two</p></div></body></html>`)
	body := doc.Find("body")
	if body == nil {
		t.Fatal("no body")
	}
	div := body.Find("div")
	if div == nil || len(div.Children) != 2 {
		t.Fatalf("div children: %+v", div)
	}
	if id, _ := div.Attr("id"); id != "main" {
		t.Fatal("attr lost")
	}
	ps := doc.FindAll("p")
	if len(ps) != 2 {
		t.Fatalf("FindAll p: %d", len(ps))
	}
	if ps[0].Children[0].Text != "one" {
		t.Fatalf("text: %+v", ps[0].Children[0])
	}
	if ps[0].Parent != div {
		t.Fatal("parent pointer wrong")
	}
}

func TestParseImpliedEndTags(t *testing.T) {
	doc := Parse(`<ul><li>a<li>b<li>c</ul>`)
	lis := doc.FindAll("li")
	if len(lis) != 3 {
		t.Fatalf("implied </li>: got %d li", len(lis))
	}
	for _, li := range lis {
		if li.Parent.Tag != "ul" {
			t.Fatalf("li nested inside %q, want ul", li.Parent.Tag)
		}
	}
	doc2 := Parse(`<table><tr><td>1<td>2<tr><td>3</table>`)
	if got := len(doc2.FindAll("tr")); got != 2 {
		t.Fatalf("tr count: %d", got)
	}
	if got := len(doc2.FindAll("td")); got != 3 {
		t.Fatalf("td count: %d", got)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<p>a<br>b<img src="x">c</p>`)
	ps := doc.FindAll("p")
	if len(ps) != 1 {
		t.Fatalf("p count %d", len(ps))
	}
	// br and img must not swallow following content.
	br := doc.Find("br")
	if len(br.Children) != 0 {
		t.Fatal("void element has children")
	}
	var texts []string
	doc.Walk(func(n *Node) bool {
		if n.Type == TextNode {
			texts = append(texts, n.Text)
		}
		return true
	})
	if strings.Join(texts, "") != "abc" {
		t.Fatalf("texts: %v", texts)
	}
}

func TestParseStrayEndTagIgnored(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	div := doc.Find("div")
	var texts []string
	div.Walk(func(n *Node) bool {
		if n.Type == TextNode {
			texts = append(texts, n.Text)
		}
		return true
	})
	if strings.Join(texts, "") != "ab" {
		t.Fatalf("stray close mangled tree: %v", texts)
	}
}

func TestVisibleTextBasics(t *testing.T) {
	src := `<html><head><title>T</title><style>.x{}</style></head>
	<body><h1>Header</h1><p>Hello <b>world</b>!</p>
	<script>var x = "invisible";</script>
	<div style="display: none">hidden</div>
	<div hidden>also hidden</div>
	<p>Visible   with   spaces</p></body></html>`
	got := VisibleText(Parse(src))
	if strings.Contains(got, "invisible") || strings.Contains(got, "hidden") {
		t.Fatalf("leaked invisible content: %q", got)
	}
	if strings.Contains(got, "T\n") || strings.HasPrefix(got, "T") {
		t.Fatalf("title should not be visible body text: %q", got)
	}
	lines := strings.Split(got, "\n")
	if lines[0] != "Header" {
		t.Fatalf("first line: %q", lines[0])
	}
	if lines[1] != "Hello world !" && lines[1] != "Hello world!" {
		t.Fatalf("inline join: %q", lines[1])
	}
	if !strings.Contains(got, "Visible with spaces") {
		t.Fatalf("whitespace not collapsed: %q", got)
	}
}

func TestVisibleTextBlockBoundaries(t *testing.T) {
	src := `<div>first block</div><div>second block</div><span>same </span><span>line</span>`
	got := VisibleText(Parse(src))
	lines := strings.Split(got, "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %q", lines)
	}
	if lines[0] != "first block" || lines[1] != "second block" || lines[2] != "same line" {
		t.Fatalf("block split wrong: %q", lines)
	}
}

func TestVisibleTextImgAlt(t *testing.T) {
	got := VisibleText(Parse(`<p><img src="x.png" alt="A red bicycle"> for sale</p>`))
	if !strings.Contains(got, "A red bicycle") {
		t.Fatalf("alt text missing: %q", got)
	}
}

func TestVisibleLines(t *testing.T) {
	lines := VisibleLines(Parse(`<p>a</p><p>b</p>`))
	if len(lines) != 2 || lines[0] != "a" || lines[1] != "b" {
		t.Fatalf("VisibleLines: %v", lines)
	}
	if VisibleLines(Parse(``)) != nil {
		t.Fatal("empty doc should give nil")
	}
}

func TestTitle(t *testing.T) {
	doc := Parse(`<html><head><title>  My   Page </title></head><body>x</body></html>`)
	if got := Title(doc); got != "My Page" {
		t.Fatalf("Title: %q", got)
	}
	if got := Title(Parse(`<p>no title</p>`)); got != "" {
		t.Fatalf("missing title: %q", got)
	}
}

func TestUnescapeEntitiesEdgeCases(t *testing.T) {
	cases := map[string]string{
		"no entities":   "no entities",
		"&amp;&amp;":    "&&",
		"&#0;":          "&#0;", // NUL rejected
		"&toolongname;": "&toolongname;",
		"&":             "&",
		"a&#x2014;b":    "a—b",
	}
	for in, want := range cases {
		if got := UnescapeEntities(in); got != want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWalkSkipSubtree(t *testing.T) {
	doc := Parse(`<div><p>skip me</p></div><span>keep</span>`)
	var visited []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Tag)
			return n.Tag != "div" // skip div subtree
		}
		return true
	})
	for _, tag := range visited {
		if tag == "p" {
			t.Fatal("subtree not skipped")
		}
	}
}

func TestRoundTripRealisticPage(t *testing.T) {
	src := `<!DOCTYPE html>
<html><head><title>Deep Learning Book | BookShop</title>
<meta charset="utf-8"><link rel="stylesheet" href="s.css">
<script src="app.js"></script></head>
<body>
<nav class="nav"><ul><li><a href="/">Home</a><li><a href="/books">Books</a></ul></nav>
<main>
<h1>An Introduction to Deep Learning</h1>
<div class="meta">by <span class="author">Eugene Charniak</span></div>
<div class="price">$40.13</div>
<p>A guide to writing deep learning programs, with the widely-used
Python language &amp; TensorFlow environment.</p>
<table><tr><th>Format</th><td>Hardcover</td></tr>
<tr><th>Pages</th><td>192</td></tr></table>
</main>
<footer>&copy; 2021 BookShop Inc.</footer>
</body></html>`
	doc := Parse(src)
	text := VisibleText(doc)
	for _, want := range []string{
		"An Introduction to Deep Learning", "Eugene Charniak", "$40.13",
		"Hardcover", "192", "© 2021 BookShop Inc.", "Python language & TensorFlow",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in rendered text:\n%s", want, text)
		}
	}
	if strings.Contains(text, "app.js") || strings.Contains(text, "stylesheet") {
		t.Errorf("head resources leaked: %s", text)
	}
	if Title(doc) != "Deep Learning Book | BookShop" {
		t.Errorf("title: %q", Title(doc))
	}
}

func BenchmarkParse(b *testing.B) {
	src := strings.Repeat(`<div class="row"><span>cell a</span><span>cell b</span><p>Some paragraph text with <b>bold</b> and <a href="/x">links</a>.</p></div>`, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(src)
	}
}

func BenchmarkVisibleText(b *testing.B) {
	src := strings.Repeat(`<div><p>Paragraph with some realistic amount of text in it, like a product description.</p></div>`, 100)
	doc := Parse(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VisibleText(doc)
	}
}

func TestNestedListsRender(t *testing.T) {
	src := `<ul><li>top one<ul><li>sub a</li><li>sub b</li></ul></li><li>top two</li></ul>`
	lines := VisibleLines(Parse(src))
	joined := strings.Join(lines, "|")
	for _, want := range []string{"top one", "sub a", "sub b", "top two"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in %q", want, joined)
		}
	}
	// Sub-items must not fuse with the parent item text on one line.
	for _, ln := range lines {
		if strings.Contains(ln, "top one") && strings.Contains(ln, "sub a") {
			t.Fatalf("nested list fused: %q", ln)
		}
	}
}

func TestTableCellsSeparate(t *testing.T) {
	src := `<table><tr><td>alpha</td><td>beta</td></tr><tr><td>gamma</td><td>delta</td></tr></table>`
	lines := VisibleLines(Parse(src))
	if len(lines) != 4 {
		t.Fatalf("table cells should be 4 lines, got %q", lines)
	}
}

func TestDeeplyNestedDoesNotOverflow(t *testing.T) {
	var b strings.Builder
	const depth = 2000
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("core")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	doc := Parse(b.String())
	if got := VisibleText(doc); got != "core" {
		t.Fatalf("deep nesting text: %q", got)
	}
}

func TestMalformedAttributes(t *testing.T) {
	for _, src := range []string{
		`<div class=>x</div>`,
		`<div ="noname">x</div>`,
		`<div class="unterminated>x</div>`,
		`<div a=1 a=2>x</div>`,
	} {
		doc := Parse(src)
		if doc == nil {
			t.Fatalf("nil doc for %q", src)
		}
	}
}

func TestTextareaAndTitleRawText(t *testing.T) {
	toks := collect(`<textarea>type <b>here</b></textarea>`)
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, "<b>here</b>") {
		t.Fatalf("textarea not raw: %+v", toks[1])
	}
}

func TestCommentInsideBodyInvisible(t *testing.T) {
	got := VisibleText(Parse(`<p>before</p><!-- <p>ghost</p> --><p>after</p>`))
	if strings.Contains(got, "ghost") {
		t.Fatalf("comment content leaked: %q", got)
	}
}

func TestVisibilityHiddenStyle(t *testing.T) {
	got := VisibleText(Parse(`<div style="visibility: hidden">gone</div><div>kept</div>`))
	if strings.Contains(got, "gone") || !strings.Contains(got, "kept") {
		t.Fatalf("visibility:hidden handling: %q", got)
	}
}

func TestInputHiddenInvisible(t *testing.T) {
	got := VisibleText(Parse(`<form><input type="hidden" value="secret"><p>form body</p></form>`))
	if strings.Contains(got, "secret") {
		t.Fatalf("hidden input leaked: %q", got)
	}
}

func TestRawTextInvalidUTF8Regression(t *testing.T) {
	// Fuzzing found this: invalid UTF-8 inside a raw-text element used to
	// shift byte offsets (ToLower expands bad bytes to U+FFFD) and panic.
	srcs := []string{
		"<sCript>\x92\x8e\xed\xa0\xd6</sCript",
		"<script>\xff\xfe\xfd</SCRIPT>after",
		"<STYLE>\x80</style><p>ok</p>",
	}
	for _, src := range srcs {
		doc := Parse(src) // must not panic
		_ = VisibleText(doc)
	}
	// Case-insensitive close still terminates raw text correctly.
	got := VisibleText(Parse("<SCRIPT>var x;</sCrIpT><p>shown</p>"))
	if got != "shown" {
		t.Fatalf("case-folded close tag: %q", got)
	}
}
