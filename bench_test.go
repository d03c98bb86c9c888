// Benchmarks that time each experiment of the paper's evaluation (§IV) at
// smoke scale, one benchmark per table, plus the ingestion and briefing
// costs of one page. They track cost only: EXPERIMENTS.md's tables are what
// `go run ./cmd/wbexp -scale full` prints, and serving speed is measured end
// to end by bench/run.sh's ledger.
package webbrief_test

import (
	"math/rand"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/experiments"
	"webbrief/internal/tensor"
	"webbrief/internal/wb"
)

// benchSetup builds a fresh smoke-scale experiment setup (corpus, GloVe,
// MLM pre-training). Each table benchmark rebuilds it inside the timed loop
// so iterations are independent (the setup caches trained systems).
func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	s, err := experiments.NewSetup(experiments.DefaultOptions(experiments.ScaleSmoke))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchTable times one full experiment regeneration, setup included.
func benchTable(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		s := benchSetup(b)
		if _, err := s.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates Table IV (distillation variants, topic
// generation on unseen/seen/all domains).
func BenchmarkTable4(b *testing.B) { benchTable(b, "4") }

// BenchmarkTable5 regenerates Table V (distillation across teacher models).
func BenchmarkTable5(b *testing.B) { benchTable(b, "5") }

// BenchmarkTable6 regenerates Table VI (single-task baselines, attribute
// extraction).
func BenchmarkTable6(b *testing.B) { benchTable(b, "6") }

// BenchmarkTable7 regenerates Table VII (single-task baselines, topic
// generation).
func BenchmarkTable7(b *testing.B) { benchTable(b, "7") }

// BenchmarkTable8 regenerates Table VIII (joint baselines, attribute
// extraction).
func BenchmarkTable8(b *testing.B) { benchTable(b, "8") }

// BenchmarkTable9 regenerates Table IX (joint baselines, topic generation).
func BenchmarkTable9(b *testing.B) { benchTable(b, "9") }

// BenchmarkTable10 regenerates Table X (simulated human evaluation).
func BenchmarkTable10(b *testing.B) { benchTable(b, "10") }

// BenchmarkDatasetQuality regenerates the §IV-A2 dataset-quality study.
func BenchmarkDatasetQuality(b *testing.B) { benchTable(b, "quality") }

// BenchmarkSensitivity regenerates the §IV-D content-sensitivity study
// (synthetic two-topic pages at 50-50 / 70-30 / 30-70 proportions).
func BenchmarkSensitivity(b *testing.B) { benchTable(b, "sensitivity") }

// BenchmarkHTMLToInstance times the full ingestion pipeline for one page:
// HTML parse → visible text → normalisation → instance encoding.
func BenchmarkHTMLToInstance(b *testing.B) {
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 1, SeenDomains: 4, UnseenDomains: 0})
	if err != nil {
		b.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	html := ds.Pages[0].HTML
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb.InstanceFromHTML(html, v, 0)
	}
}

// BenchmarkBrief times producing one hierarchical briefing (forward pass,
// tag decode, section decode, beam-search topic decode) with an untrained
// small Joint-WB — the inference-latency figure a browser integration
// would care about.
func BenchmarkBrief(b *testing.B) {
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 2, UnseenDomains: 0})
	if err != nil {
		b.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	insts := wb.NewInstances(ds.Pages, v, 0)
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(1))))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	cfg.BeamSize = 4
	m := wb.NewJointWB("bench", enc, v.Size(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb.MakeBrief(m, insts[i%len(insts)], v, 4)
	}
}

// BenchmarkTeacherEpoch times one training epoch of the Joint-WB teacher at
// smoke scale — the dominant cost of every experiment.
func BenchmarkTeacherEpoch(b *testing.B) {
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 3, UnseenDomains: 0})
	if err != nil {
		b.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	insts := wb.NewInstances(ds.Pages, v, 0)
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(1))))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	cfg.BeamSize = 4
	m := wb.NewJointWB("bench", enc, v.Size(), cfg)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb.TrainModel(m, insts, tc)
	}
}

// teacherEpochBench times one Joint-WB training epoch under the given
// batching/worker configuration — the knobs of the data-parallel engine.
func teacherEpochBench(b *testing.B, batchSize, workers int) {
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 3, UnseenDomains: 0})
	if err != nil {
		b.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	insts := wb.NewInstances(ds.Pages, v, 0)
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(1))))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	cfg.BeamSize = 4
	m := wb.NewJointWB("bench", enc, v.Size(), cfg)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = batchSize
	tc.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb.TrainModel(m, insts, tc)
	}
}

// BenchmarkTeacherEpochBatched is the sequential reference with
// gradient-accumulation batches of 8 on the arena-tape engine.
func BenchmarkTeacherEpochBatched(b *testing.B) { teacherEpochBench(b, 8, 1) }

// BenchmarkTeacherEpochParallel is the same workload fanned across
// GOMAXPROCS workers (Workers: 0) — compare against Batched for the
// data-parallel speedup on multi-core machines.
func BenchmarkTeacherEpochParallel(b *testing.B) { teacherEpochBench(b, 8, 0) }

// BenchmarkAttrNames regenerates the attribute-name prediction extension
// (§V future work).
func BenchmarkAttrNames(b *testing.B) { benchTable(b, "names") }

// BenchmarkHierarchy regenerates the multi-level extraction extension with
// its combined-signal ablation (§III-C sketch).
func BenchmarkHierarchy(b *testing.B) { benchTable(b, "hier") }

// BenchmarkAblations regenerates the design-choice ablation studies
// (Markov dependency, UD soft weight, beam width).
func BenchmarkAblations(b *testing.B) { benchTable(b, "ablation") }
