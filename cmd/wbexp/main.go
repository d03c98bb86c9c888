// Command wbexp regenerates the paper's evaluation tables (§IV) on the
// synthetic corpus. Each table trains the systems it needs (systems are
// shared across tables within one run) and prints the same rows the paper
// reports.
//
// Usage:
//
//	wbexp [-scale full|smoke] [-table 4|5|6|7|8|9|10|quality|sensitivity|all] [-seed N] [-o out.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbexp: ")
	scale := flag.String("scale", "smoke", "experiment scale: full (reported numbers, ~7 min on one x86 core) or smoke (seconds)")
	table := flag.String("table", "all", "experiment id: "+strings.Join(experiments.AllIDs(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "master random seed")
	out := flag.String("o", "", "also write the tables to this file")
	flag.Parse()

	var opt experiments.Options
	switch *scale {
	case "full":
		opt = experiments.DefaultOptions(experiments.ScaleFull)
	case "smoke":
		opt = experiments.DefaultOptions(experiments.ScaleSmoke)
	default:
		log.Fatalf("unknown scale %q (want full or smoke)", *scale)
	}
	opt.Seed = *seed

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	log.Printf("building setup (scale=%s, seed=%d): corpus, GloVe, MiniBERT MLM pretraining...", *scale, *seed)
	setup, err := experiments.NewSetup(opt)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("setup ready in %v", time.Since(start).Round(time.Second))
	log.Printf("corpus: %s", corpus.ComputeStats(setup.DS.Pages))

	ids := experiments.AllIDs()
	if *table != "all" {
		ids = []string{*table}
	}
	for _, id := range ids {
		t0 := time.Now()
		tab, err := setup.Run(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(w, tab.String())
		log.Printf("experiment %s done in %v", id, time.Since(t0).Round(time.Second))
	}
	log.Printf("all done in %v", time.Since(start).Round(time.Second))
}
