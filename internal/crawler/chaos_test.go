package crawler

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/fault"
)

// chaosConfig is the chaos suite's crawl profile: production-shaped
// resilience, virtual clock, retry budget deep enough that a 30% per-attempt
// fault rate almost never exhausts it (0.3⁷ ≈ 0.02% per URL).
func chaosConfig(clk *fakeClock) Config {
	cfg := DefaultConfig()
	cfg.Retries = 6
	cfg.FetchTimeout = 100 * time.Millisecond
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 16 * time.Millisecond
	cfg.Seed = 42
	cfg.HostRPS = 1000
	cfg.HostBurst = 4
	cfg.Now = clk.Now
	cfg.Sleep = clk.Sleep
	return cfg
}

// chaosCrawl crawls site through a fault.Fetcher at the default 30% fault
// rate under a virtual clock.
func chaosCrawl(t *testing.T, site *corpus.Site, faultSeed int64) (*Result, *fault.Schedule) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1, 0)}
	sched := fault.NewSchedule(fault.DefaultConfig(faultSeed))
	ff := fault.NewFetcher(MapFetcher(site.Pages), sched)
	ff.Sleep = clk.Sleep
	res, err := Crawl(ff, site.Home, chaosConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	return res, sched
}

// TestChaosCrawlDeterministicPartialResults is the crawler half of the
// acceptance criteria: with faults injected at a 30% rate,
//
//   - the crawl completes with partial-result semantics (never an abort),
//   - identical seeds reproduce identical fault schedules and a
//     byte-identical Result,
//   - the retry stack converges the faulted crawl to the same corpus a
//     clean crawl finds, byte for byte,
//   - and no goroutines leak.
func TestChaosCrawlDeterministicPartialResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	site := corpus.GenerateSite(corpus.DomainByName("books"), 20, rng)

	before := runtime.NumGoroutine()

	clean, err := Crawl(MapFetcher(site.Pages), site.Home, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Failed) != 0 {
		t.Fatalf("clean crawl failed URLs: %v", clean.Failed)
	}

	for _, seed := range []int64{1, 2, 3} {
		res1, sched1 := chaosCrawl(t, site, seed)
		res2, sched2 := chaosCrawl(t, site, seed)

		// Identical seeds → identical schedules (same number of draws and
		// injections) and byte-identical crawl results, retries included.
		if sched1.Draws() != sched2.Draws() || sched1.Injected() != sched2.Injected() {
			t.Fatalf("seed %d: schedule replay diverged: %d/%d draws, %d/%d injected",
				seed, sched1.Draws(), sched2.Draws(), sched1.Injected(), sched2.Injected())
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("seed %d: equal seeds produced different crawl results", seed)
		}
		if sched1.Injected() == 0 {
			t.Fatalf("seed %d: chaos run injected no faults", seed)
		}
		if res1.Retries == 0 {
			t.Fatalf("seed %d: 30%% faults but zero retries spent — injection is not reaching the crawler", seed)
		}

		// Convergence: the faulted crawl recovers the clean corpus byte
		// for byte — same kept URLs, same HTML, same classifications.
		if !reflect.DeepEqual(res1.Content, clean.Content) {
			t.Fatalf("seed %d: faulted crawl corpus diverges from clean crawl\n faulted: %v\n clean:   %v\n failed:  %v",
				seed, res1.contentURLs(), clean.contentURLs(), res1.Failed)
		}
		if !reflect.DeepEqual(res1.Index, clean.Index) || !reflect.DeepEqual(res1.Media, clean.Media) {
			t.Fatalf("seed %d: page classifications diverge under faults", seed)
		}
		if len(res1.Failed) != 0 {
			t.Fatalf("seed %d: retry budget exhausted on %v", seed, res1.Failed)
		}
	}

	// The resilience stack spawns no goroutines; only per-attempt
	// context.WithTimeout timers exist transiently. Allow them to clear.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before chaos crawls, %d after", before, after)
	}
}

// TestChaosCrawlSurvivesUnrecoverableURL: with a retry budget shallower
// than the fault rate warrants, some URLs exhaust it — the crawl must
// still complete, record those URLs with reasons, and keep everything
// else (partial-result semantics under chaos).
func TestChaosCrawlSurvivesUnrecoverableURL(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	site := corpus.GenerateSite(corpus.DomainByName("jobs"), 20, rng)

	clk := &fakeClock{t: time.Unix(1, 0)}
	// 90% fault rate and a single retry: exhaustion is certain somewhere.
	sched := fault.NewSchedule(fault.Config{Seed: 3, Rate: 0.9})
	ff := fault.NewFetcher(MapFetcher(site.Pages), sched)
	ff.Sleep = clk.Sleep
	cfg := chaosConfig(clk)
	cfg.Retries = 1
	cfg.BreakerThreshold = 0 // isolate retry exhaustion from breaker fail-fast
	res, err := Crawl(ff, site.Home, cfg)
	if err != nil {
		t.Fatalf("crawl aborted instead of returning partial results: %v", err)
	}
	if len(res.Failed) == 0 {
		t.Fatal("expected retry exhaustion at 90% faults with 1 retry")
	}
	for _, f := range res.Failed {
		if f.Reason == "" || f.Attempts != 2 {
			t.Fatalf("failure %+v: want a reason and exactly 2 attempts", f)
		}
	}
	if res.Visited == 0 {
		t.Fatal("no pages survived: partial-result semantics should keep the reachable subset")
	}
	// Replay: the same seeds give the same partial result.
	clk2 := &fakeClock{t: time.Unix(1, 0)}
	sched2 := fault.NewSchedule(fault.Config{Seed: 3, Rate: 0.9})
	ff2 := fault.NewFetcher(MapFetcher(site.Pages), sched2)
	ff2.Sleep = clk2.Sleep
	cfg2 := chaosConfig(clk2)
	cfg2.Retries = 1
	cfg2.BreakerThreshold = 0
	res2, err := Crawl(ff2, site.Home, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("equal seeds produced different partial results")
	}
}
