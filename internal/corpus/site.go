package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Site is a generated website: a homepage, index pages, media pages and
// content-rich pages connected by links. It is the input the
// structure-driven crawler of §IV-A1 [24] walks — the paper downloads
// 1,500–2,000 content-rich pages per website and excludes indexing and
// multimedia pages; internal/crawler reproduces that filtering against
// these sites.
type Site struct {
	Domain string
	Home   string            // homepage URL
	Pages  map[string]string // url → HTML for every page on the site

	// Ground truth for crawler evaluation.
	ContentURLs []string
	IndexURLs   []string
	MediaURLs   []string

	// ContentPages maps a content URL to its labelled Page.
	ContentPages map[string]*Page
}

// GenerateSite builds a website for domain d with numContent content-rich
// pages, plus index and media pages in realistic proportions. All URLs are
// site-absolute paths.
func GenerateSite(d *Domain, numContent int, rng *rand.Rand) *Site {
	s := &Site{
		Domain:       d.Name,
		Home:         "/index.html",
		Pages:        map[string]string{},
		ContentPages: map[string]*Page{},
	}

	// Content pages, re-using the labelled page generator; a nav block of
	// links is prepended so content pages interlink like real sites.
	for i := 0; i < numContent; i++ {
		url := fmt.Sprintf("/%s/item%03d.html", d.Name, i)
		s.ContentURLs = append(s.ContentURLs, url)
		s.ContentPages[url] = generatePage(d, i, rng)
	}

	// Index pages: mostly links, little text (the crawler must skip them).
	numIndex := 2 + numContent/8
	for i := 0; i < numIndex; i++ {
		s.IndexURLs = append(s.IndexURLs, fmt.Sprintf("/%s/list%02d.html", d.Name, i))
	}

	// Media pages: video/image players with minimal text.
	numMedia := 1 + numContent/10
	for i := 0; i < numMedia; i++ {
		s.MediaURLs = append(s.MediaURLs, fmt.Sprintf("/%s/media%02d.html", d.Name, i))
	}

	// Assemble HTML. Content pages link to the home page, the next content
	// page and a media page, mirroring "related items" chrome.
	for i, url := range s.ContentURLs {
		var extra strings.Builder
		extra.WriteString(`<div class="sitelinks"><a href="/index.html">home</a>`)
		next := s.ContentURLs[(i+1)%len(s.ContentURLs)]
		fmt.Fprintf(&extra, ` <a href="%s">next item</a>`, next)
		fmt.Fprintf(&extra, ` <a href="%s">gallery</a></div>`, s.MediaURLs[i%len(s.MediaURLs)])
		html := s.ContentPages[url].HTML
		html = strings.Replace(html, "</body>", extra.String()+"\n</body>", 1)
		s.Pages[url] = html
	}

	// Each index page links a share of the content pages plus other index
	// pages.
	for i, url := range s.IndexURLs {
		var b strings.Builder
		b.WriteString("<!DOCTYPE html>\n<html><head><title>listing</title></head><body>\n<ul>\n")
		for j, curl := range s.ContentURLs {
			if j%numIndex == i {
				fmt.Fprintf(&b, `<li><a href="%s">item %d</a></li>`+"\n", curl, j)
			}
		}
		for j, iurl := range s.IndexURLs {
			if j != i {
				fmt.Fprintf(&b, `<li><a href="%s">more listings %d</a></li>`+"\n", iurl, j)
			}
		}
		b.WriteString("</ul>\n<a href=\"/index.html\">home</a>\n</body></html>\n")
		s.Pages[url] = b.String()
	}

	// Media pages: a video element and thumbnails, nearly no text.
	for i, url := range s.MediaURLs {
		s.Pages[url] = fmt.Sprintf(`<!DOCTYPE html>
<html><head><title>media %d</title></head><body>
<video src="/assets/clip%d.mp4" controls></video>
<img src="/assets/thumb%da.jpg"><img src="/assets/thumb%db.jpg">
<a href="/index.html">home</a>
</body></html>
`, i, i, i, i)
	}

	// Homepage links to the index pages and a media page.
	var home strings.Builder
	home.WriteString("<!DOCTYPE html>\n<html><head><title>" + strings.Join(d.Topic, " ") + "</title></head><body>\n")
	home.WriteString("<h1>welcome</h1>\n<ul>\n")
	for i, iurl := range s.IndexURLs {
		fmt.Fprintf(&home, `<li><a href="%s">browse section %d</a></li>`+"\n", iurl, i)
	}
	fmt.Fprintf(&home, `<li><a href="%s">media gallery</a></li>`+"\n", s.MediaURLs[0])
	home.WriteString("</ul>\n</body></html>\n")
	s.Pages[s.Home] = home.String()

	return s
}
