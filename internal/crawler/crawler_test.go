package crawler

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/htmldom"
)

func TestMapFetcher(t *testing.T) {
	f := MapFetcher{"/a": "<p>hi</p>"}
	if html, err := f.Fetch("/a"); err != nil || html == "" {
		t.Fatal("present page must fetch")
	}
	if _, err := f.Fetch("/missing"); err == nil {
		t.Fatal("absent page must error")
	}
}

func TestClassifyKinds(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name string
		html string
		want PageKind
	}{
		{"video page", `<video src="x.mp4"></video><p>watch</p>`, KindMedia},
		{"audio page", `<audio src="x.mp3"></audio>`, KindMedia},
		{"image gallery", `<img src="a"><img src="b"><img src="c"><p>pics</p>`, KindMedia},
		{"link farm", `<ul><li><a href="/a">one</a></li><li><a href="/b">two</a></li><li><a href="/c">three</a></li></ul>`, KindIndex},
		{"tiny page", `<p>almost nothing here</p>`, KindIndex},
		{"content page", `<main>` + longText() + `</main><a href="/">home</a>`, KindContent},
	}
	for _, c := range cases {
		if got := Classify(htmldom.Parse(c.html), cfg); got != c.want {
			t.Errorf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}

func longText() string {
	s := ""
	for i := 0; i < 12; i++ {
		s += "<p>this paragraph has a reasonable amount of descriptive content in it</p>"
	}
	return s
}

func TestExtractLinks(t *testing.T) {
	doc := htmldom.Parse(`<a href="/x.html">x</a>
		<a href="rel.html">rel</a>
		<a href="https://external.com/z">ext</a>
		<a href="#frag">frag</a>
		<a href="javascript:void(0)">js</a>
		<a href="/x.html">dup</a>
		<a>no href</a>`)
	got := ExtractLinks(doc, "/books/page.html")
	want := []string{"/x.html", "/books/rel.html"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("links: %v want %v", got, want)
	}
}

// TestExtractLinksFragmentsAndSchemes pins the satellite fix: fragment-only
// and javascript: hrefs (in any disguise) must never be enqueued as
// crawlable URLs, and fragment variants of one page must collapse to one
// target.
func TestExtractLinksFragmentsAndSchemes(t *testing.T) {
	doc := htmldom.Parse(`<a href="#">top</a>
		<a href="#section-2">frag only</a>
		<a href="  #padded  ">padded frag</a>
		<a href="page.html#a">page anchor a</a>
		<a href="page.html#b">page anchor b</a>
		<a href="/abs.html#top">abs anchor</a>
		<a href="javascript:void(0)">js</a>
		<a href="JavaScript:alert(1)">js mixed case</a>
		<a href="java&#10;script:alert(1)">js newline</a>
		<a href="other.html">real</a>`)
	got := ExtractLinks(doc, "/books/page.html")
	want := []string{"/books/page.html", "/abs.html", "/books/other.html"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("links: %v want %v", got, want)
	}
}

func TestResolveLink(t *testing.T) {
	cases := []struct{ base, href, want string }{
		{"/a/b.html", "/c.html", "/c.html"},
		{"/a/b.html", "c.html", "/a/c.html"},
		{"/b.html", "c.html", "/c.html"},
		{"/a/b.html", "  /sp.html ", "/sp.html"},
		{"/a/b.html", "//cdn.com/x", ""},
		{"/a/b.html", "mailto:x@y.z", ""},
		{"/a/b.html", "tel:12345", ""},
		{"/a/b.html", "http://x.com/y", ""},
		{"/a/b.html", "javascript:void(0)", ""},
		{"/a/b.html", "JavaScript:void(0)", ""},
		{"/a/b.html", "java\nscript:void(0)", ""},
		{"/a/b.html", "java\tscript:void(0)", ""},
		{"/a/b.html", "#", ""},
		{"/a/b.html", "#frag", ""},
		{"/a/b.html", "  #frag  ", ""},
		{"/a/b.html", "c.html#frag", "/a/c.html"},
		{"/a/b.html", "/x.html#top", "/x.html"},
		{"/a/b.html", "c.html#a#b", "/a/c.html"},
	}
	for _, c := range cases {
		if got := resolveLink(c.base, c.href); got != c.want {
			t.Errorf("resolveLink(%q, %q) = %q, want %q", c.base, c.href, got, c.want)
		}
	}
}

// The headline crawler test: crawl a generated site and recover exactly the
// content-rich pages, excluding every index and media page (§IV-A1).
func TestCrawlRecoversContentPages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"books", "pets"} { // colon-style and paren-style domains
		site := corpus.GenerateSite(corpus.DomainByName(name), 20, rng)
		res, err := Crawl(MapFetcher(site.Pages), site.Home, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := append([]string{}, site.ContentURLs...)
		sort.Strings(want)
		if !reflect.DeepEqual(res.contentURLs(), want) {
			t.Fatalf("%s: crawl kept %v\nwant %v\nindex=%v media=%v", name, res.contentURLs(), want, res.Index, res.Media)
		}
		if len(res.Index) != len(site.IndexURLs)+1 { // +1: the homepage is an index page
			t.Errorf("%s: classified %d index pages, site has %d (+1 homepage)", name, len(res.Index), len(site.IndexURLs))
		}
		if len(res.Media) != len(site.MediaURLs) {
			t.Errorf("%s: classified %d media pages, site has %d", name, len(res.Media), len(site.MediaURLs))
		}
		if len(res.Failed) != 0 {
			t.Errorf("%s: unexpected fetch failures: %v", name, res.Failed)
		}
	}
}

func TestCrawlMaxPages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	site := corpus.GenerateSite(corpus.DomainByName("jobs"), 30, rng)
	cfg := DefaultConfig()
	cfg.MaxPages = 5
	res, err := Crawl(MapFetcher(site.Pages), site.Home, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 5 {
		t.Fatalf("visited %d pages, cap was 5", res.Visited)
	}
}

func TestCrawlHandlesDeadLinks(t *testing.T) {
	pages := MapFetcher{
		"/index.html": `<a href="/alive.html">a</a><a href="/dead.html">d</a>`,
		"/alive.html": `<main>` + longText() + `</main>`,
	}
	res, err := Crawl(pages, "/index.html", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0].URL != "/dead.html" {
		t.Fatalf("failed: %v", res.Failed)
	}
	// A 404 is permanent: one attempt, no retry burn, and the reason is
	// carried through.
	if f := res.Failed[0]; f.Attempts != 1 || !strings.Contains(f.Reason, "404") {
		t.Fatalf("dead link failure %+v, want 1 attempt with a 404 reason", f)
	}
	if res.Retries != 0 {
		t.Fatalf("crawl spent %d retries on a permanent 404", res.Retries)
	}
	if len(res.Content) != 1 {
		t.Fatalf("content: %v", res.contentURLs())
	}
}

func TestCrawlEmptyStart(t *testing.T) {
	if _, err := Crawl(MapFetcher{}, "", DefaultConfig()); err == nil {
		t.Fatal("empty start must error")
	}
}

func TestCrawlNoLinkCycles(t *testing.T) {
	// a ↔ b cycle must terminate.
	pages := MapFetcher{
		"/a.html": `<a href="/b.html">b</a>` + longText(),
		"/b.html": `<a href="/a.html">a</a>` + longText(),
	}
	res, err := Crawl(pages, "/a.html", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 2 {
		t.Fatalf("visited %d, want 2", res.Visited)
	}
}

func TestGenerateSiteStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	site := corpus.GenerateSite(corpus.DomainByName("hotels"), 10, rng)
	if len(site.ContentURLs) != 10 {
		t.Fatalf("content pages: %d", len(site.ContentURLs))
	}
	if _, ok := site.Pages[site.Home]; !ok {
		t.Fatal("homepage missing")
	}
	total := 1 + len(site.ContentURLs) + len(site.IndexURLs) + len(site.MediaURLs)
	if len(site.Pages) != total {
		t.Fatalf("site has %d pages, want %d", len(site.Pages), total)
	}
	// Content pages must keep their label alignment after link injection.
	for url, page := range site.ContentPages {
		got := corpus.ReparseFromHTML(site.Pages[url])
		// The injected sitelinks div adds exactly one extra line.
		if len(got) != len(page.Sentences)+1 {
			t.Fatalf("%s: %d sentences after link injection, want %d+1", url, len(got), len(page.Sentences))
		}
		for i, sent := range page.Sentences {
			if !reflect.DeepEqual(got[i], sent.Tokens) {
				t.Fatalf("%s sentence %d shifted by link injection", url, i)
			}
		}
	}
}

func BenchmarkCrawlSite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	site := corpus.GenerateSite(corpus.DomainByName("books"), 30, rng)
	f := MapFetcher(site.Pages)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Crawl(f, site.Home, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
