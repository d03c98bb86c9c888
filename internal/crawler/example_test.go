package crawler_test

import (
	"fmt"

	"webbrief/internal/crawler"
	"webbrief/internal/htmldom"
)

// ExampleCrawl walks a three-page site from its homepage and keeps only the
// content-rich page: the homepage classifies as an index (links, no text)
// and the gallery as media (§IV-A1's filtering).
func ExampleCrawl() {
	longText := ""
	for i := 0; i < 10; i++ {
		longText += "<p>a paragraph with enough descriptive words to count as content</p>"
	}
	site := crawler.MapFetcher{
		"/index.html": `<ul><li><a href="/item.html">item</a></li><li><a href="/pics.html">pics</a></li></ul>`,
		"/item.html":  `<main>` + longText + `</main>`,
		"/pics.html":  `<video src="clip.mp4"></video>`,
	}
	res, err := crawler.Crawl(site, "/index.html", crawler.DefaultConfig())
	if err != nil {
		panic(err)
	}
	var content []string
	for _, p := range res.Content {
		content = append(content, p.URL)
	}
	fmt.Printf("visited %d, content %v, index %v, media %v\n",
		res.Visited, content, res.Index, res.Media)
	// Output:
	// visited 3, content [/item.html], index [/index.html], media [/pics.html]
}

// ExampleClassify shows the structural page classifier on its own.
func ExampleClassify() {
	doc := htmldom.Parse(`<audio src="song.mp3"></audio>`)
	fmt.Println(crawler.Classify(doc, crawler.DefaultConfig()))
	// Output:
	// media
}
