// End-to-end integration test over the public workflow: generate websites,
// crawl them (§IV-A1), train Joint-WB on the kept content pages, serialize
// the model bundle, reload it, and brief a previously unseen HTML page —
// the exact path the cmd/ tools drive, in one deterministic test.
package webbrief_test

import (
	"bytes"
	"strings"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/crawler"
	"webbrief/internal/embed"
	"webbrief/internal/wb"

	"math/rand"
)

func TestEndToEndCrawlTrainSerializeBrief(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rng := rand.New(rand.NewSource(99))

	// 1. Crawl two generated websites.
	var pages []*corpus.Page
	for _, name := range []string{"books", "jobs"} {
		site := corpus.GenerateSite(corpus.DomainByName(name), 8, rng)
		res, err := crawler.Crawl(crawler.MapFetcher(site.Pages), site.Home, crawler.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Content) != 8 {
			t.Fatalf("%s: crawler kept %d pages, want 8", name, len(res.Content))
		}
		for _, cp := range res.Content {
			pages = append(pages, site.ContentPages[cp.URL])
		}
	}

	// 2. Train a small Joint-WB on the crawled pages.
	v := corpus.BuildVocab(pages)
	insts := wb.NewInstances(pages, v, 0)
	var docs [][]int
	for _, p := range pages {
		var doc []int
		for _, s := range p.Sentences {
			doc = append(doc, v.IDs(s.Tokens)...)
		}
		docs = append(docs, doc)
	}
	gcfg := embed.DefaultGloVeConfig(16)
	gcfg.Seed = 99
	enc := wb.NewGloVeEncoder(embed.TrainGloVe(docs, v.Size(), gcfg))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = 99
	model := wb.NewJointWB("Joint-WB", enc, v.Size(), cfg)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 25
	wb.TrainModel(model, insts, tc)

	em, _ := wb.EvaluateTopics(model, insts, v, 4, 4)
	if em < 75 {
		t.Fatalf("training fit too weak for the rest of the test: EM %.1f", em)
	}

	// 3. Serialize as wbtrain does, reload as wbrief does.
	var buf bytes.Buffer
	if err := wb.SaveSnapshot(&buf, model, v); err != nil {
		t.Fatal(err)
	}
	loaded, lv, err := wb.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Brief an external, never-generated HTML page with the RELOADED
	// model — the cmd/wbrief path.
	const page = `<html><head><title>x</title></head><body>
<nav><div>home about contact help</div></nav>
<main><h1>title : novel bestseller</h1>
<div>author : emma smith</div>
<div>price : $ 12.99</div>
<div>pages : 208</div>
<p>the hardcover is popular with visitors</p></main>
<footer><div>copyright 2021 all rights reserved</div></footer>
</body></html>`
	inst := wb.InstanceFromHTML(page, lv, 0)
	brief := wb.MakeBrief(loaded, inst, lv, 4)
	if len(brief.Topic) == 0 {
		t.Fatal("no topic decoded")
	}
	if got := strings.Join(brief.Topic, " "); got != "book shopping website" {
		t.Fatalf("briefed topic %q, want book shopping website", got)
	}
	if len(brief.Attributes) == 0 {
		t.Fatal("no attributes extracted")
	}
	// The price must be among the extracted attributes.
	foundPrice := false
	for _, attr := range brief.Attributes {
		if strings.Contains(strings.Join(attr, " "), "$") {
			foundPrice = true
		}
	}
	if !foundPrice {
		t.Fatalf("price attribute missing from briefing: %v", brief.Attributes)
	}
}
