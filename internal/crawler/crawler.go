// Package crawler reproduces the structure-driven crawler of §IV-A1 [24]:
// starting from a website's homepage it walks the link structure breadth
// first, classifies each page structurally, and keeps only the content-rich
// pages — "indexing webpages and multimedia webpages such as video, music
// and image pages are not included".
//
// The crawler is transport-agnostic: pages come from a Fetcher, which in
// this offline repository is a map over generated corpus.Site pages, but
// could equally wrap net/http.
package crawler

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"webbrief/internal/htmldom"
	"webbrief/internal/textproc"
)

// Fetcher retrieves the HTML of a URL.
type Fetcher interface {
	Fetch(url string) (html string, err error)
}

// MapFetcher serves pages from memory; absent URLs return a Permanent
// error — a 404 is not transient, so the crawler records it without
// burning retries.
type MapFetcher map[string]string

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(url string) (string, error) {
	html, ok := m[url]
	if !ok {
		return "", Permanent(fmt.Errorf("crawler: 404 %s", url))
	}
	return html, nil
}

// PageKind classifies a fetched page.
type PageKind int

// Structural page classes of §IV-A1.
const (
	KindContent PageKind = iota // content-rich: kept
	KindIndex                   // link farm / listing: skipped
	KindMedia                   // video/audio/image page: skipped
)

// String names the kind.
func (k PageKind) String() string {
	switch k {
	case KindContent:
		return "content"
	case KindIndex:
		return "index"
	default:
		return "media"
	}
}

// Config bounds a crawl and shapes its resilience stack. The zero value
// of every resilience field means "off": single attempt per URL, no
// deadline, no rate limit, no circuit breaker — the seed behavior.
type Config struct {
	// MaxPages caps the number of fetched pages (the paper downloads
	// 1,500–2,000 per site). 0 means unlimited.
	MaxPages int
	// MinTextTokens is the minimum visible-token count for a page to be
	// content-rich.
	MinTextTokens int
	// MaxLinkRatio is the maximum links-per-text-token ratio before a page
	// counts as an index page.
	MaxLinkRatio float64

	// FetchTimeout is the per-fetch deadline, applied per attempt when the
	// Fetcher implements ContextFetcher (0 = none).
	FetchTimeout time.Duration
	// Retries is how many extra attempts a transiently-failing fetch gets
	// after the first (0 = none). Permanent errors are never retried.
	Retries int
	// BackoffBase is the exponential backoff base before retry 1
	// (0 = 10ms); BackoffMax caps the backoff including jitter (0 = 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter RNG; equal seeds replay equal crawls.
	Seed int64
	// HostRPS rate-limits fetches per host with a token bucket refilling
	// at HostRPS tokens/second and holding HostBurst (0 → 1) tokens
	// (HostRPS 0 = unlimited).
	HostRPS   float64
	HostBurst int
	// BreakerThreshold consecutive retry-exhausted fetches on one host
	// open its circuit breaker (0 = disabled): further fetches fail fast
	// until a probe succeeds after BreakerCooldown (0 = 500ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Now and Sleep are the clock seams (nil = time.Now / time.Sleep);
	// chaos tests inject a virtual clock so backoff, rate-limit and
	// breaker behavior replay instantly and deterministically.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// DefaultConfig returns thresholds calibrated for the synthetic sites (and
// sensible for small real pages), with a production-shaped resilience
// stack: 10s fetch deadlines, 3 retries under capped-jitter backoff, and a
// 5-strike circuit breaker. Rate limiting stays opt-in.
func DefaultConfig() Config {
	return Config{
		MaxPages: 2000, MinTextTokens: 30, MaxLinkRatio: 0.2,
		FetchTimeout: 10 * time.Second,
		Retries:      3,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   2 * time.Second,
		Seed:         1,
		BreakerThreshold: 5,
		BreakerCooldown:  500 * time.Millisecond,
	}
}

// CrawledPage is one kept content page.
type CrawledPage struct {
	URL  string
	HTML string
}

// Result summarises a crawl. A crawl never aborts on fetch errors: URLs
// that stay unreachable after the retry budget land in Failed with their
// reasons, and everything reachable is still crawled (partial-result
// semantics).
type Result struct {
	Content []CrawledPage
	Index   []string
	Media   []string
	Failed  []Failure
	Visited int
	// Retries counts the extra fetch attempts spent crawl-wide, the
	// crawler-side mirror of serve's retries_total.
	Retries int
}

// Classify determines a page's structural kind. Media pages are detected by
// embedded player elements or image dominance; index pages by a high
// link-to-text ratio or very little text; everything else is content-rich.
func Classify(doc *htmldom.Node, cfg Config) PageKind {
	// Media: player elements, or more images than text tokens.
	media := len(doc.FindAll("video")) + len(doc.FindAll("audio")) + len(doc.FindAll("embed"))
	imgs := len(doc.FindAll("img"))
	textTokens := 0
	for _, line := range htmldom.VisibleLines(doc) {
		textTokens += len(textproc.Normalize(line))
	}
	if media > 0 || (imgs > 0 && textTokens < 5*imgs) {
		return KindMedia
	}
	links := len(doc.FindAll("a"))
	if textTokens < cfg.MinTextTokens {
		return KindIndex
	}
	if float64(links) > cfg.MaxLinkRatio*float64(textTokens) {
		return KindIndex
	}
	return KindContent
}

// ExtractLinks returns the same-site link targets of a page in document
// order, de-duplicated. Only site-absolute paths and relative paths are
// followed; external schemes, anchors and javascript links are ignored.
func ExtractLinks(doc *htmldom.Node, baseURL string) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range doc.FindAll("a") {
		href, ok := a.Attr("href")
		if !ok {
			continue
		}
		u := resolveLink(baseURL, href)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		out = append(out, u)
	}
	return out
}

// resolveLink resolves href against base, keeping only same-site targets.
// Per the URL spec it strips ASCII tab/newline anywhere in the href (so
// "java\nscript:" cannot smuggle a scheme past the check) and drops the
// fragment — "page.html#a" and "page.html#b" are the same crawl target,
// and a fragment-only href is not a target at all.
func resolveLink(base, href string) string {
	href = strings.TrimSpace(href)
	href = strings.Map(func(r rune) rune {
		if r == '\t' || r == '\n' || r == '\r' {
			return -1
		}
		return r
	}, href)
	if i := strings.IndexByte(href, '#'); i >= 0 {
		href = href[:i]
	}
	switch {
	case href == "": // empty or fragment-only
		return ""
	case strings.HasPrefix(href, "//"):
		return "" // protocol-relative external
	case strings.HasPrefix(href, "/"):
		return href
	}
	// Any scheme prefix (http:, mailto:, javascript:, tel:) before the
	// first slash marks a non-crawlable target.
	if i := strings.IndexByte(href, ':'); i >= 0 && !strings.ContainsRune(href[:i], '/') {
		return ""
	}
	// Relative: resolve against the base's directory.
	dir := base
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	}
	return dir + href
}

// Crawl walks the site breadth-first from start, classifying each fetched
// page and keeping the content-rich ones. It is deterministic: links are
// followed in document order, and the resilience stack (per-fetch
// deadlines, capped-jitter backoff retries, per-host rate limiting, the
// circuit breaker) draws only from the Config.Seed RNG and the Config
// clock seams, so equal seeds over equal fetch outcomes replay
// byte-identical results. Fetch failures never abort the crawl: they
// become Result.Failed entries.
func Crawl(f Fetcher, start string, cfg Config) (*Result, error) {
	if start == "" {
		return nil, errors.New("crawler: empty start URL")
	}
	st := newCrawlState(f, cfg)
	res := &Result{}
	queue := []string{start}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		if cfg.MaxPages > 0 && res.Visited >= cfg.MaxPages {
			break
		}
		url := queue[0]
		queue = queue[1:]
		html, failure := st.fetchOne(url)
		res.Retries = st.retries
		if failure != nil {
			res.Failed = append(res.Failed, *failure)
			continue
		}
		res.Visited++
		doc := htmldom.Parse(html)
		switch Classify(doc, cfg) {
		case KindContent:
			res.Content = append(res.Content, CrawledPage{URL: url, HTML: html})
		case KindIndex:
			res.Index = append(res.Index, url)
		case KindMedia:
			res.Media = append(res.Media, url)
		}
		for _, link := range ExtractLinks(doc, url) {
			if !visited[link] {
				visited[link] = true
				queue = append(queue, link)
			}
		}
	}
	return res, nil
}

// contentURLs returns the kept content URLs sorted, for set comparison in
// tests.
func (r *Result) contentURLs() []string {
	out := make([]string, len(r.Content))
	for i, p := range r.Content {
		out[i] = p.URL
	}
	sort.Strings(out)
	return out
}
