package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/fault"
	"webbrief/internal/htmldom"
	"webbrief/internal/wb"
)

// postBriefSrc is postBrief with a ?src= source-domain attribution, the
// input to the cache's per-domain admission/TTL policy.
func postBriefSrc(tsURL, html, src string) (int, []byte, error) {
	resp, err := http.Post(tsURL+"/brief?src="+url.QueryEscape(src), "text/html", strings.NewReader(html))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// TestCacheHitMissByteIdentical is the cache correctness core: over a real
// trained model, a miss computes through the normal pipeline and produces
// bytes identical to an uncached server; a repeat post of the same bytes is
// a raw (parse-free) hit; a markup variant rendering to the same visible
// text is a content hit — and every hit serves the exact miss-path bytes.
func TestCacheHitMissByteIdentical(t *testing.T) {
	m, v, pages := trainedModel(t)
	m.Cfg.BeamSize = 2

	// Uncached reference server: the miss path must be byte-identical to it.
	plain, err := New(m, v, Config{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(plain)
	defer tsPlain.Close()

	srv, err := New(m, v, Config{Replicas: 1, CacheCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cache == nil {
		t.Fatal("CacheCapacity > 0 did not enable the cache")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i, p := range pages {
		// A leading comment changes the raw bytes but not the visible text,
		// so it must land as a content hit. Pin that premise explicitly.
		variant := fmt.Sprintf("<!-- mirror %d -->", i) + p.HTML
		if htmldom.VisibleText(htmldom.Parse(variant)) != htmldom.VisibleText(htmldom.Parse(p.HTML)) {
			t.Fatal("comment prefix changed the rendered visible text; test premise broken")
		}

		status, want, err := postBrief(tsPlain.URL, p.HTML)
		if err != nil || status != http.StatusOK {
			t.Fatalf("page %d uncached reference: status %d err %v", i, status, err)
		}

		for _, step := range []struct{ rep, html string }{
			{"miss", p.HTML}, {"raw-hit", p.HTML}, {"content-hit", variant},
		} {
			rep, html := step.rep, step.html
			status, body, err := postBrief(ts.URL, html)
			if err != nil || status != http.StatusOK {
				t.Fatalf("page %d %s: status %d err %v", i, rep, status, err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("page %d %s diverges from the uncached server:\n got %s\nwant %s", i, rep, body, want)
			}
		}
	}

	// Exact cache partition: per page one miss and two hits, no coalescing.
	n := int64(len(pages))
	ms := srv.metrics
	if totalOf(ms.CacheLookups) != 3*n || countOf(ms.CacheLookups, CacheHits) != 2*n ||
		countOf(ms.CacheLookups, CacheMisses) != n || countOf(ms.CacheLookups, CacheCoalesced) != 0 {
		t.Fatalf("cache counters lookups=%d hits=%d misses=%d coalesced=%d, want %d/%d/%d/0",
			totalOf(ms.CacheLookups), countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheCoalesced),
			3*n, 2*n, n)
	}
	if got := ms.CacheHitLatency.count.Load(); got != 2*n {
		t.Fatalf("hit latency histogram count=%d, want %d", got, 2*n)
	}
	if countOf(ms.Requests, OK) != 3*n || totalOf(ms.Requests) != 3*n {
		t.Fatalf("ok=%d requests=%d, want %d", countOf(ms.Requests, OK), totalOf(ms.Requests), 3*n)
	}

	// /metrics serves the cache block with the same numbers, partitioned.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Cache
	if !c.Enabled || c.CacheLookups != 3*n || c.Evictions != 0 {
		t.Fatalf("cache snapshot %+v", c)
	}
	if c.CacheLookups != sumCounts(c.CacheOutcomes) {
		t.Fatalf("cache_lookups_total=%d does not partition into outcomes %+v", c.CacheLookups, c.CacheOutcomes)
	}
	// Each page left one entry: its briefing, aliased by the variant's raw
	// bytes, which took the alias over from the first form's.
	if c.Entries != int(n) {
		t.Fatalf("cache entries=%d, want %d (one per page)", c.Entries, n)
	}
	if c.HitLatencyNS.Count != 2*n {
		t.Fatalf("hit_latency_ns count=%d, want %d", c.HitLatencyNS.Count, 2*n)
	}
}

// herdReplica counts Encode calls and blocks each until released — the
// counting stub that proves a thundering herd checks out one replica.
type herdReplica struct {
	encodes atomic.Int64
	started chan struct{}
	release chan struct{}
}

func newHerdReplica() *herdReplica {
	return &herdReplica{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (r *herdReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.encodes.Add(1)
	r.started <- struct{}{}
	<-r.release
	return &wb.Brief{Topic: []string{"herd"}}
}
func (r *herdReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// TestCacheThunderingHerd: N concurrent posts of one cold page coalesce
// into a single replica computation. The winner blocks mid-Encode while
// every loser registers as coalesced; on release all N receive identical
// 200 bodies from exactly one Encode, and a subsequent post is a pure hit
// that still checks out no replica.
func TestCacheThunderingHerd(t *testing.T) {
	stub := newHerdReplica()
	srv := NewFromPool(PoolOf(lift(stub)), Config{CacheCapacity: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const herd = 8
	const page = "<p>cold page, everyone at once</p>"
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan result, herd)
	for i := 0; i < herd; i++ {
		go func() {
			status, body, err := postBrief(ts.URL, page)
			results <- result{status, body, err}
		}()
	}

	// The winner is wedged in Encode; every other member must be counted
	// as coalesced before we let the computation finish.
	<-stub.started
	ms := srv.metrics
	waitCond(t, "herd to coalesce", func() bool { return countOf(ms.CacheLookups, CacheCoalesced) == herd-1 })
	close(stub.release)

	var first []byte
	for i := 0; i < herd; i++ {
		r := <-results
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("herd member %d: status %d err %v", i, r.status, r.err)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(r.body, first) {
			t.Fatalf("herd member %d body diverges:\n got %s\nwant %s", i, r.body, first)
		}
	}
	if n := stub.encodes.Load(); n != 1 {
		t.Fatalf("herd of %d drove %d Encodes, want exactly 1", herd, n)
	}
	if totalOf(ms.CacheLookups) != herd || countOf(ms.CacheLookups, CacheMisses) != 1 ||
		countOf(ms.CacheLookups, CacheHits) != 0 || countOf(ms.CacheLookups, CacheCoalesced) != herd-1 {
		t.Fatalf("herd counters lookups=%d misses=%d hits=%d coalesced=%d, want %d/1/0/%d",
			totalOf(ms.CacheLookups), countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheCoalesced),
			herd, herd-1)
	}

	// The entry is warm now: a repeat post hits without touching the pool.
	status, body, err := postBrief(ts.URL, page)
	if err != nil || status != http.StatusOK || !bytes.Equal(body, first) {
		t.Fatalf("post-herd hit: status %d err %v", status, err)
	}
	if stub.encodes.Load() != 1 || countOf(ms.CacheLookups, CacheHits) != 1 {
		t.Fatalf("post-herd hit drove encodes=%d hits=%d, want 1/1", stub.encodes.Load(), countOf(ms.CacheLookups, CacheHits))
	}
}

// herdPanicReplica blocks Encode until released, then panics — the failing
// winner of the coalesced-failure test.
type herdPanicReplica struct {
	started chan struct{}
	release chan struct{}
}

func (r *herdPanicReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.started <- struct{}{}
	<-r.release
	panic("cache: injected winner failure")
}
func (r *herdPanicReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// TestCacheCoalescedFailureReplay: when the flight winner's computation
// fails terminally, the losers replay the same 500 (collapse forwarding)
// instead of stampeding the broken pipeline — and the failure is never
// cached, so the next request recomputes.
func TestCacheCoalescedFailureReplay(t *testing.T) {
	stub := &herdPanicReplica{started: make(chan struct{}, 8), release: make(chan struct{})}
	srv := NewFromPool(PoolOf(lift(stub)), Config{
		CacheCapacity:  64,
		ReplicaRetries: -1, // no retries: the winner's panic is terminal
		ProbeInterval:  time.Hour,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const herd = 3
	const page = "<p>doomed page</p>"
	results := make(chan int, herd)
	for i := 0; i < herd; i++ {
		go func() {
			status, _, err := postBrief(ts.URL, page)
			if err != nil {
				status = -1
			}
			results <- status
		}()
	}
	<-stub.started
	ms := srv.metrics
	waitCond(t, "losers to coalesce", func() bool { return countOf(ms.CacheLookups, CacheCoalesced) == herd-1 })
	close(stub.release)

	for i := 0; i < herd; i++ {
		if status := <-results; status != http.StatusInternalServerError {
			t.Fatalf("herd member %d got %d, want the winner's 500 replayed", i, status)
		}
	}
	if countOf(ms.Requests, ReplicaFailure) != herd || ms.Panics.Load() != 1 {
		t.Fatalf("failures=%d panics=%d, want %d/1 (one panic, replayed to all)",
			countOf(ms.Requests, ReplicaFailure), ms.Panics.Load(), herd)
	}
	if countOf(ms.CacheLookups, CacheMisses) != 1 || countOf(ms.CacheLookups, CacheCoalesced) != herd-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1/%d", countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheCoalesced), herd-1)
	}
	// Failures are replayed to the herd but never stored: the cache is empty.
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("failed computation left %d cache entries", n)
	}
}

// TestCachePolicyDenyAndSrcDomain covers the ?src= admission seam: denied
// domains bypass the cache entirely (every request computes, no counters
// move), admitted domains and unattributed requests cache normally, and
// the src parameter accepts full URLs with mixed case and ports.
func TestCachePolicyDenyAndSrcDomain(t *testing.T) {
	policy, err := briefcache.ParsePolicy(strings.NewReader(
		"# soak policy\ndeny denied.example.com\nttl 20m ok.example.org\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep := &okReplica{}
	srv := NewFromPool(PoolOf(lift(rep)), Config{CacheCapacity: 64, CachePolicy: policy})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post2 := func(html, src string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			var status int
			var err error
			if src == "" {
				status, _, err = postBrief(ts.URL, html)
			} else {
				status, _, err = postBriefSrc(ts.URL, html, src)
			}
			if err != nil || status != http.StatusOK {
				t.Fatalf("post %d src=%q: status %d err %v", i, src, status, err)
			}
		}
	}

	ms := srv.metrics
	// Denied domain, including the URL/case/port forms cacheDomain must
	// normalise: both posts compute, the cache never consulted.
	post2("<p>denied content</p>", "https://Sub.DENIED.example.com:8443/article?x=1")
	if rep.briefs.Load() != 2 || totalOf(ms.CacheLookups) != 0 {
		t.Fatalf("denied domain: briefs=%d lookups=%d, want 2/0", rep.briefs.Load(), totalOf(ms.CacheLookups))
	}

	// Admitted domain: second post is a hit, no second computation.
	post2("<p>admitted content</p>", "news.ok.example.org")
	if rep.briefs.Load() != 3 || countOf(ms.CacheLookups, CacheHits) != 1 || countOf(ms.CacheLookups, CacheMisses) != 1 {
		t.Fatalf("admitted domain: briefs=%d hits=%d misses=%d, want 3/1/1",
			rep.briefs.Load(), countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheMisses))
	}

	// Unattributed requests (no ?src=) are always admitted.
	post2("<p>anonymous content</p>", "")
	if rep.briefs.Load() != 4 || countOf(ms.CacheLookups, CacheHits) != 2 {
		t.Fatalf("no src: briefs=%d hits=%d, want 4/2", rep.briefs.Load(), countOf(ms.CacheLookups, CacheHits))
	}

	if totalOf(ms.CacheLookups) != countOf(ms.CacheLookups, CacheHits)+countOf(ms.CacheLookups, CacheMisses)+countOf(ms.CacheLookups, CacheCoalesced) {
		t.Fatalf("cache partition drifted: lookups=%d hits=%d misses=%d coalesced=%d",
			totalOf(ms.CacheLookups), countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheCoalesced))
	}
}

// TestCacheAccessLogOutcome: each access-log line names its request's cache
// outcome — a raw hit and a content hit apart, the miss that computed — and a
// request from a denied domain, which never consults the cache, has no
// "cache" field. Counted per value, the lines are the cache_lookups_total
// partition.
func TestCacheAccessLogOutcome(t *testing.T) {
	policy, err := briefcache.ParsePolicy(strings.NewReader("deny denied.example.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	var accessLog bytes.Buffer
	srv := NewFromPool(PoolOf(lift(&okReplica{})), Config{CacheCapacity: 64, CachePolicy: policy, AccessLog: &accessLog})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const page = "<p>logged page</p>"
	for _, p := range []struct{ html, src string }{
		{page, ""},                      // miss
		{page, ""},                      // raw hit
		{"<!-- variant -->" + page, ""}, // content hit
		{"<p>denied page</p>", "denied.example.com"}, // not a lookup
	} {
		status, _, err := postBriefSrc(ts.URL, p.html, p.src)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post %q: status %d err %v", p.html, status, err)
		}
	}
	ts.Close() // every handler has returned, so every line is written

	counts := map[string]int64{}
	lines := bytes.Split(bytes.TrimSpace(accessLog.Bytes()), []byte("\n"))
	for _, line := range lines {
		var entry accessEntry
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if entry.Cache == "" && bytes.Contains(line, []byte(`"cache"`)) {
			t.Fatalf("line %s: an empty outcome must be omitted", line)
		}
		counts[entry.Cache]++
	}
	want := map[string]int64{cacheRawHit: 1, cacheContentHit: 1, cacheMiss: 1, "": 1}
	if len(lines) != 4 || len(counts) != len(want) {
		t.Fatalf("%d lines with outcomes %v, want 4 lines with %v", len(lines), counts, want)
	}
	for v, n := range want {
		if counts[v] != n {
			t.Fatalf("outcomes %v, want %v", counts, want)
		}
	}
	ms := srv.metrics
	if counts[cacheRawHit]+counts[cacheContentHit] != countOf(ms.CacheLookups, CacheHits) ||
		counts[cacheMiss] != countOf(ms.CacheLookups, CacheMisses) ||
		counts[cacheCoalesced] != countOf(ms.CacheLookups, CacheCoalesced) ||
		int64(len(lines))-counts[""] != totalOf(ms.CacheLookups) {
		t.Fatalf("log outcomes %v do not partition cache_lookups_total=%d (hits %d misses %d coalesced %d)",
			counts, totalOf(ms.CacheLookups), countOf(ms.CacheLookups, CacheHits),
			countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheCoalesced))
	}
}

// TestCacheHitBypassesBatching: a miss dispatches through the scheduler as
// a batch, but a hit is served before it — no batch forms, no replica is
// touched.
func TestCacheHitBypassesBatching(t *testing.T) {
	rep := &okReplica{}
	srv := NewFromPool(PoolOf(lift(rep)), Config{CacheCapacity: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ms := srv.metrics
	if status, _, err := postBrief(ts.URL, "<p>batched page</p>"); err != nil || status != http.StatusOK {
		t.Fatalf("miss through the batched path: status %d err %v", status, err)
	}
	if ms.BatchesTotal.Load() != 1 || rep.briefs.Load() != 1 || countOf(ms.CacheLookups, CacheMisses) != 1 {
		t.Fatalf("after miss: batches=%d briefs=%d misses=%d, want 1/1/1",
			ms.BatchesTotal.Load(), rep.briefs.Load(), countOf(ms.CacheLookups, CacheMisses))
	}

	if status, _, err := postBrief(ts.URL, "<p>batched page</p>"); err != nil || status != http.StatusOK {
		t.Fatalf("hit through the batched server: status %d err %v", status, err)
	}
	if ms.BatchesTotal.Load() != 1 || rep.briefs.Load() != 1 {
		t.Fatalf("a cache hit formed a batch: batches=%d briefs=%d, want still 1/1",
			ms.BatchesTotal.Load(), rep.briefs.Load())
	}
	if countOf(ms.CacheLookups, CacheHits) != 1 {
		t.Fatalf("hits=%d, want 1", countOf(ms.CacheLookups, CacheHits))
	}
}

// TestChaosServeCachedSoak is the cache-under-chaos soak: a pool warmed
// with clean briefings gets one replica wrapped in a 35%-faulted injector,
// then concurrent clients mix warm cached pages with fresh unique pages.
// Cached pages must never fail and never serve anything but the clean
// reference bytes (a garbage-faulting replica must not poison the cache),
// overall success stays ≥99%, and both the requests_total and
// cache_lookups_total partitions reconcile exactly. Skipped under -short;
// scripts/check.sh runs it race-enabled.
func TestChaosServeCachedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cached chaos soak skipped in -short")
	}
	srv := NewFromPool(PoolOf(lift(&okReplica{}), lift(&okReplica{}), lift(&okReplica{})), Config{
		CacheCapacity:  1024,
		ReplicaRetries: 2,
		StallTimeout:   15 * time.Millisecond,
		ProbeInterval:  2 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm phase, on the all-healthy pool: cache the reference pages and
	// capture the clean bytes every later cached response must match.
	const warmPages = 4
	cached := make([]string, warmPages)
	want := make([][]byte, warmPages)
	for k := range cached {
		cached[k] = fmt.Sprintf("<p>evergreen page %d</p>", k)
		status, body, err := postBrief(ts.URL, cached[k])
		if err != nil || status != http.StatusOK {
			t.Fatalf("warm page %d: status %d err %v", k, status, err)
		}
		want[k] = body
	}

	// Only now does chaos arrive: one replica in three starts faulting.
	sched := fault.NewSchedule(fault.Config{
		Seed: 11, Rate: 0.35,
		ErrorWeight: 1, TimeoutWeight: 1, SlowWeight: 1, GarbageWeight: 1,
		SlowDelay:   time.Millisecond,
		TimeoutHang: 40 * time.Millisecond,
	})
	if err := srv.Pool().WrapOne(func(r Replica) Replica { return fault.NewReplica(r, sched) }); err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 25
	var ok200, fail500, other, cachedPosts, badBody atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var html string
				var ref []byte
				if i%2 == 0 {
					k := (c + i) % warmPages
					html, ref = cached[k], want[k]
					cachedPosts.Add(1)
				} else {
					// Fresh unique page: always a cold miss through the
					// (partially faulted) pool.
					html = fmt.Sprintf("<p>fresh page c%d i%d</p>", c, i)
				}
				status, body, err := postBrief(ts.URL, html)
				switch {
				case err != nil:
					other.Add(1)
				case status == http.StatusOK:
					ok200.Add(1)
					if ref != nil && !bytes.Equal(body, ref) {
						badBody.Add(1)
					}
				case status == http.StatusInternalServerError:
					if ref != nil {
						// A cached page can only fail if the cache lost or
						// corrupted it — count that as a body failure too.
						badBody.Add(1)
					}
					fail500.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if badBody.Load() != 0 {
		t.Fatalf("%d cached-page responses failed or diverged from the clean reference bytes", badBody.Load())
	}
	if other.Load() != 0 {
		t.Fatalf("%d requests ended outside the 200/500 contract", other.Load())
	}
	total := int64(clients * perClient)
	if ok200.Load() < total*99/100 {
		t.Fatalf("successes %d/%d, below p99 with one faulted replica and a warm cache", ok200.Load(), total)
	}

	// Requests partition: warm posts + soak posts, every one 200 or 500.
	ms := srv.metrics
	allRequests := total + warmPages
	if totalOf(ms.Requests) != allRequests {
		t.Fatalf("requests_total=%d, clients sent %d", totalOf(ms.Requests), allRequests)
	}
	if countOf(ms.Requests, OK) != ok200.Load()+warmPages || countOf(ms.Requests, ReplicaFailure) != fail500.Load() {
		t.Fatalf("server ok=%d/500=%d, clients saw %d/%d",
			countOf(ms.Requests, OK), countOf(ms.Requests, ReplicaFailure), ok200.Load()+warmPages, fail500.Load())
	}
	if totalOf(ms.Requests) != countOf(ms.Requests, OK)+countOf(ms.Requests, ReplicaFailure) {
		t.Fatalf("counters do not partition: total=%d ok=%d failure=%d",
			totalOf(ms.Requests), countOf(ms.Requests, OK), countOf(ms.Requests, ReplicaFailure))
	}

	// Cache partition: every request consulted the cache; cached posts are
	// all hits (they never touch a replica), warm and fresh posts are all
	// misses, and unique fresh pages leave nothing to coalesce.
	if totalOf(ms.CacheLookups) != allRequests {
		t.Fatalf("cache_lookups_total=%d, want %d (every request consults the cache)",
			totalOf(ms.CacheLookups), allRequests)
	}
	if totalOf(ms.CacheLookups) != countOf(ms.CacheLookups, CacheHits)+countOf(ms.CacheLookups, CacheMisses)+countOf(ms.CacheLookups, CacheCoalesced) {
		t.Fatalf("cache partition drifted: lookups=%d hits=%d misses=%d coalesced=%d",
			totalOf(ms.CacheLookups), countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheCoalesced))
	}
	if countOf(ms.CacheLookups, CacheHits) != cachedPosts.Load() || countOf(ms.CacheLookups, CacheCoalesced) != 0 {
		t.Fatalf("hits=%d coalesced=%d, want %d/0 (cached pages hit, fresh pages are unique)",
			countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheCoalesced), cachedPosts.Load())
	}
	if countOf(ms.CacheLookups, CacheMisses) != allRequests-cachedPosts.Load() {
		t.Fatalf("misses=%d, want %d", countOf(ms.CacheLookups, CacheMisses), allRequests-cachedPosts.Load())
	}
	if srv.cache.Evictions() != 0 {
		t.Fatalf("soak evicted %d entries from an underfull cache", srv.cache.Evictions())
	}

	// Fault events reconcile (each one retried or ended every unanswered
	// member of its batch), and the schedule actually reached the pool.
	if ms.Panics.Load()+ms.Stalls.Load() > ms.Retries.Load()+countOf(ms.Requests, ReplicaFailure) {
		t.Fatalf("fault events do not reconcile: panics=%d stalls=%d retries=%d failures=%d",
			ms.Panics.Load(), ms.Stalls.Load(), ms.Retries.Load(), countOf(ms.Requests, ReplicaFailure))
	}
	if ms.Panics.Load()+ms.Stalls.Load() == 0 {
		t.Fatal("soak injected no faults; the chaos schedule is not reaching the replica")
	}

	// Quiesce: capacity recovers fully once the prober readmits.
	waitCond(t, "pool capacity recovery", func() bool { return srv.Pool().Healthy() == 3 })
	if ms.InFlight.Load() != 0 || ms.Queued.Load() != 0 {
		t.Fatalf("residual in_flight=%d queued=%d", ms.InFlight.Load(), ms.Queued.Load())
	}
}

// hitWriter is a reusable http.ResponseWriter, so TestCacheHitAllocs counts
// the handler's allocations and not a recorder's.
type hitWriter struct {
	header http.Header
	n      int
}

func (w *hitWriter) Header() http.Header         { return w.header }
func (w *hitWriter) WriteHeader(int)             {}
func (w *hitWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestCacheHitAllocs pins the raw-key hit handler — body read, one SHA-256,
// the level-1 lookup, the cached bytes written — on an 850-byte page
// attributed with ?src= and with a deadline configured, as the fleet runs
// wbserve. Measured 3 allocations: the body buffer, the access-log entry
// and the Content-Type header value. The limit stays at 6, the count when
// the gate landed (three more went to parsing the query then).
func TestCacheHitAllocs(t *testing.T) {
	srv := NewFromPool(PoolOf(lift(&okReplica{})), Config{CacheCapacity: 64, Timeout: 30 * time.Second})
	defer srv.BeginShutdown()

	page := []byte(strings.Repeat("<p>briefing page text</p>\n", 34)[:850])
	body := bytes.NewReader(page)
	req := httptest.NewRequest(http.MethodPost, "/brief?src=https://s1.books.example/p", body)
	w := &hitWriter{header: http.Header{}}
	post := func() {
		body.Reset(page)
		w.n = 0
		srv.ServeHTTP(w, req)
		if w.n == 0 {
			t.Fatal("empty response")
		}
	}
	post() // the miss that fills the cache
	if hits := countOf(srv.metrics.CacheLookups, CacheHits); hits != 0 {
		t.Fatalf("priming post counted %d hits", hits)
	}
	allocs := testing.AllocsPerRun(200, post)
	t.Logf("one raw-key hit: %.1f allocs", allocs)
	if got := countOf(srv.metrics.CacheLookups, CacheHits); got != 201 {
		t.Fatalf("cache hits = %d, want 201: the gate measured something other than hits", got)
	}
	if allocs > 6 {
		t.Fatalf("one raw-key hit allocates %.1f, want <= 6", allocs)
	}
}
