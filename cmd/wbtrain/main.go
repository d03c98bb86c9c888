// Command wbtrain trains a Joint-WB model on the synthetic webpage corpus
// and saves the model bundle (weights + vocabulary) for cmd/wbrief and
// cmd/wbserve.
//
// Usage:
//
//	wbtrain [-domains N] [-pages N] [-epochs N] [-hidden N] [-embdim N] [-seed N] [-workers N] -out model.bin
//
// The bundle is written in the one model file format, the versioned,
// checksummed snapshot (internal/snapshot); cmd/wbsnap -info describes one.
// Training is deterministic: the same flags give the same bytes.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/embed"
	"webbrief/internal/wb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbtrain: ")
	domains := flag.Int("domains", 8, "number of webpage domains to train on (max 24)")
	pages := flag.Int("pages", 12, "pages generated per domain")
	epochs := flag.Int("epochs", 30, "training epochs")
	hidden := flag.Int("hidden", 24, "LSTM hidden size per direction")
	embDim := flag.Int("embdim", 24, "word embedding width")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "parallel training workers (0 = GOMAXPROCS, 1 = sequential)")
	out := flag.String("out", "model.bin", "output model bundle path")
	// Inert: kept only because bench/wbload/procs.go passes "-format
	// snapshot" and bench/ changes only in a benchmark PR; delete it there.
	format := flag.String("format", "snapshot", "accepts only \"snapshot\", the one model file format")
	export := flag.String("export", "", "also export the labelled dataset as JSONL to this path")
	flag.Parse()
	if *format != "snapshot" {
		log.Fatalf("-format %q: gob bundles were removed — the snapshot is the only model format, and training is deterministic: same flags, same weights", *format)
	}

	start := time.Now()
	ds, err := corpus.Generate(corpus.Config{Seed: *seed, PagesPerDomain: *pages, SeenDomains: *domains, UnseenDomains: 0})
	if err != nil {
		log.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	log.Printf("generated %d pages over %d domains (vocab %d)", len(ds.Pages), *domains, v.Size())
	if *export != "" {
		ef, err := os.Create(*export)
		if err != nil {
			log.Fatal(err)
		}
		if err := corpus.ExportJSONL(ef, ds.Pages, true); err != nil {
			log.Fatal(err)
		}
		ef.Close()
		log.Printf("dataset exported to %s", *export)
	}

	// Pre-train GloVe vectors on the corpus so the encoder starts from
	// meaningful co-occurrence structure.
	var docs [][]int
	for _, p := range ds.Pages {
		var doc []int
		for _, s := range p.Sentences {
			doc = append(doc, v.IDs(s.Tokens)...)
		}
		docs = append(docs, doc)
	}
	gcfg := embed.DefaultGloVeConfig(*embDim)
	gcfg.Seed = *seed
	vectors := embed.TrainGloVe(docs, v.Size(), gcfg)
	log.Printf("GloVe pre-training done (%v)", time.Since(start).Round(time.Second))

	train, dev, test := corpus.Split(ds.Pages, *seed)
	trainInsts := wb.NewInstances(train, v, 0)
	devInsts := wb.NewInstances(dev, v, 0)
	testInsts := wb.NewInstances(test, v, 0)

	cfg := wb.DefaultConfig()
	cfg.Hidden = *hidden
	cfg.Seed = *seed
	m := wb.NewJointWB("Joint-WB", wb.NewGloVeEncoder(vectors), v.Size(), cfg)

	tc := wb.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.Seed = *seed
	tc.Workers = *workers
	log.Printf("training Joint-WB on %d pages for %d epochs...", len(trainInsts), *epochs)
	losses := wb.TrainModel(m, trainInsts, tc)
	log.Printf("final training loss %.4f", losses[len(losses)-1])

	report := func(name string, insts []*wb.Instance) {
		prf := wb.EvaluateExtraction(m, insts)
		em, rm := wb.EvaluateTopics(m, insts, v, cfg.BeamSize, cfg.TopicLen)
		sec := wb.EvaluateSections(m, insts)
		log.Printf("%s: attr P %.2f R %.2f F1 %.2f | topic EM %.2f RM %.2f | section acc %.2f",
			name, prf.Precision, prf.Recall, prf.F1, em, rm, sec)
	}
	report("dev ", devInsts)
	report("test", testInsts)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := wb.SaveSnapshot(f, m, v); err != nil {
		log.Fatal(err)
	}
	log.Printf("model bundle written to %s (total %v)", *out, time.Since(start).Round(time.Second))
}
