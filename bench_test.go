// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV) at smoke scale — one benchmark per experiment, plus end-to-end
// pipeline benchmarks. The reported numbers for EXPERIMENTS.md come from
// `go run ./cmd/wbexp -scale full`; these benchmarks exist so `go test
// -bench=.` exercises every experiment code path and tracks its cost.
package webbrief_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/experiments"
	"webbrief/internal/serve"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
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
	m := wb.NewJointWB("bench", enc, v.Size(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb.MakeBrief(m, insts[i%len(insts)], v, 4)
	}
}

// serveBenchModel builds the small Joint-WB + page used by the serving
// benchmarks (untrained weights; serving cost is weight-independent).
func serveBenchModel(b *testing.B) (*wb.JointWB, *textproc.Vocab, string) {
	b.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 2, UnseenDomains: 0})
	if err != nil {
		b.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(1))))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	m := wb.NewJointWB("bench", enc, v.Size(), cfg)
	return m, v, ds.Pages[0].HTML
}

// benchHTTPPath drives handler with GOMAXPROCS client goroutines through
// the full in-process HTTP path (request parse, admission, briefing, JSON
// response) and fails on any non-200.
func benchHTTPPath(b *testing.B, handler http.Handler, html string) {
	b.Helper()
	var bad atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/brief", strings.NewReader(html))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				bad.Add(1)
			}
		}
	})
	b.StopTimer()
	if n := bad.Load(); n > 0 {
		b.Fatalf("%d requests failed", n)
	}
}

// BenchmarkServeBrief measures briefing throughput through the concurrent
// serving subsystem (internal/serve) at two pool sizes: a single replica
// (all clients contend for one model) and GOMAXPROCS replicas (each client
// can hold its own). Run with -cpu N>1 to see the multi-replica scaling.
func BenchmarkServeBrief(b *testing.B) {
	bench := func(replicas int) func(*testing.B) {
		return func(b *testing.B) {
			m, v, html := serveBenchModel(b)
			srv, err := serve.New(m, v, serve.Config{
				Replicas: replicas, QueueDepth: 1 << 16, BeamWidth: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm on the benched page so every replica's arena, pack and
			// beam buffers hit steady state before the timer starts; the
			// loop then measures the allocation-free path, not first-use
			// buffer growth on whichever replicas the scheduler picks.
			if err := srv.Pool().Warm(html); err != nil {
				b.Fatal(err)
			}
			benchHTTPPath(b, srv.Handler(), html)
		}
	}
	b.Run("replicas=1", bench(1))
	b.Run("replicas=max", bench(runtime.GOMAXPROCS(0)))
}

// benchHTTPClients drives handler with exactly `clients` concurrent client
// goroutines sharing b.N requests — unlike RunParallel, the client count is
// independent of GOMAXPROCS, so throughput-vs-concurrency curves compare
// cleanly across -cpu values.
func benchHTTPClients(b *testing.B, handler http.Handler, html string, clients int) {
	b.Helper()
	var bad atomic.Int64
	var iter atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter.Add(1) <= int64(b.N) {
				req := httptest.NewRequest(http.MethodPost, "/brief", strings.NewReader(html))
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if n := bad.Load(); n > 0 {
		b.Fatalf("%d requests failed", n)
	}
}

// BenchmarkServeBriefConcurrency is the batch scheduler's scaling grid:
// req/sec at 1, 4 and 16 concurrent clients against one replica. The
// clients=1 cell is the idle path (every briefing a batch of one, launched
// at once); with more clients than replicas, req/sec should improve as
// concurrency grows — what queues while the replica is busy coalesces into
// B-row fused forwards.
func BenchmarkServeBriefConcurrency(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			m, v, html := serveBenchModel(b)
			srv, err := serve.New(m, v, serve.Config{
				Replicas: 1, QueueDepth: 1 << 16, BeamWidth: 4, BatchMax: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Warm(html); err != nil {
				b.Fatal(err)
			}
			benchHTTPClients(b, srv.Handler(), html, clients)
		})
	}
}

// scrapedCounter reads one counter out of h's /metrics document by its JSON
// path, as an operator would.
func scrapedCounter(b *testing.B, h http.Handler, path ...string) int64 {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		b.Fatal(err)
	}
	for _, key := range path {
		doc = doc.(map[string]any)[key]
	}
	return int64(doc.(float64))
}

// BenchmarkServeBriefCascade compares the full-HTTP briefing path on the
// float64 teacher pool against the cascade's float32 student tier. The
// cascade cell pins ConfidenceThreshold to a tiny positive value (zero
// would be defaulted to 0.5 by serve.New) so every request is answered by
// the student and the cell measures the pure student fast path — the
// serving-tier counterpart of internal/wb's BenchmarkCascadeTiers, with
// parse, admission and JSON encoding included. Escalation-mix behaviour is
// covered by the check.sh cascade smoke and EXPERIMENTS.md, not here.
func BenchmarkServeBriefCascade(b *testing.B) {
	bench := func(cascade bool) func(*testing.B) {
		return func(b *testing.B) {
			m, v, html := serveBenchModel(b)
			cfg := serve.Config{Replicas: 1, QueueDepth: 1 << 16, BeamWidth: 4}
			if cascade {
				cfg.Cascade = true
				cfg.ConfidenceThreshold = 1e-12
			}
			srv, err := serve.New(m, v, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Pool().Warm(html); err != nil {
				b.Fatal(err)
			}
			benchHTTPPath(b, srv.Handler(), html)
			if cascade {
				if esc := scrapedCounter(b, srv.Handler(), "cascade", "tiers", "teacher_total"); esc > 0 {
					b.Fatalf("%d requests escalated to the teacher; the cell measured a tier mix", esc)
				}
			}
		}
	}
	b.Run("teacher-f64", bench(false))
	b.Run("student-f32", bench(true))
}

// BenchmarkServeBriefCacheHit measures the content-addressed cache's hit
// path through the full HTTP surface: one priming request fills the cache,
// then every timed request is a raw-key hit — one SHA-256 and a locked map
// probe instead of parse + encode + beam decode. Compare against the
// replicas=1 cell of BenchmarkServeBrief for the hit-vs-miss latency gap.
func BenchmarkServeBriefCacheHit(b *testing.B) {
	m, v, html := serveBenchModel(b)
	srv, err := serve.New(m, v, serve.Config{
		Replicas: 1, QueueDepth: 1 << 16, BeamWidth: 4, CacheCapacity: 1 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Pool().Warm(html); err != nil {
		b.Fatal(err)
	}
	// Prime: the one miss computes and fills the cache.
	req := httptest.NewRequest(http.MethodPost, "/brief", strings.NewReader(html))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("priming request failed: %d", rec.Code)
	}
	benchHTTPPath(b, srv.Handler(), html)
	if hits := scrapedCounter(b, srv.Handler(), "cache", "outcomes", "cache_hits_total"); hits < int64(b.N) {
		b.Fatalf("cache hits %d < %d timed requests; the benchmark measured misses", hits, b.N)
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
