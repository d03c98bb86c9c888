// Command wbrief produces a hierarchical webpage briefing (Fig. 1 of the
// paper) for an HTML file: the broad topic at the top, the extracted key
// attributes below it.
//
// Usage:
//
//	wbrief -model model.bin page.html
//	wbrief -model model.bin -text page.html   # also dump the rendered visible text
//
// Train a model bundle first with cmd/wbtrain. The topic decodes at the beam
// width the bundle records, and a page longer than wb.MaxPageTokens tokens is
// briefed on its head, as wbserve does, so the two brief a page to the same
// bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"webbrief/internal/htmldom"
	"webbrief/internal/wb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbrief: ")
	modelPath := flag.String("model", "model.bin", "model bundle from wbtrain")
	showText := flag.Bool("text", false, "also print the extracted visible text")
	asJSON := flag.Bool("json", false, "emit the briefing as JSON instead of the tree rendering")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: wbrief -model model.bin page.html")
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatalf("open model: %v (train one with wbtrain)", err)
	}
	m, v, err := wb.LoadModel(f)
	f.Close()
	if err != nil {
		log.Fatalf("load %s: %v", *modelPath, err)
	}

	html, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	doc := htmldom.Parse(string(html))
	if *showText {
		fmt.Println("--- visible text ---")
		fmt.Println(htmldom.VisibleText(doc))
		fmt.Println("--------------------")
	}
	if title := htmldom.Title(doc); title != "" {
		fmt.Printf("Page title: %s\n\n", title)
	}

	inst := wb.InstanceFromHTML(string(html), v, wb.MaxPageTokens)
	if inst.NumSents() == 0 {
		log.Fatal("no visible text found in page")
	}
	brief := wb.MakeBrief(m, inst, v, m.Cfg.BeamSize)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(brief); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(brief.String())
}
