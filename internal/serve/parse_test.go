package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/wb"
)

// This file tests the one-parse seam: the handler parses a page once, its
// sentences cross the queue, and the pool generation that briefs them assigns
// their token ids.

// gatedReplica holds every EncodeBatch of the replica it wraps until released,
// so a test can keep a real-model replica mid-batch while requests queue.
type gatedReplica struct {
	Replica
	started chan struct{}
	release chan struct{}
}

func (g *gatedReplica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	g.started <- struct{}{}
	<-g.release
	return g.Replica.EncodeBatch(insts)
}

// TestReloadOntoDifferentVocabulary hot-reloads a real-model server onto a
// bundle trained on a different corpus, with a different vocabulary, while one
// request is mid-batch on the old generation and the rest are queued behind
// it. Token ids are only meaningful under the vocabulary that assigned them,
// so every response must be exactly one generation's serial briefing of its
// page — generation 1's for the request already on a replica, never a mixture
// (generation-1 ids through generation-2 tables, or an index past the smaller
// table) for the ones that crossed the swap in the queue.
func TestReloadOntoDifferentVocabulary(t *testing.T) {
	m1, v1, pages1 := trainedModelSeed(t, 51)
	m2, v2, pages2 := trainedModelOn(t, corpus.Config{Seed: 7, PagesPerDomain: 2, SeenDomains: 4}, 52)
	if v1.Size() == v2.Size() {
		t.Fatalf("fixture too weak: both vocabularies have %d entries", v1.Size())
	}
	const beam = 2
	htmls := append(pageHTML(pages1)[:4], pageHTML(pages2)...)
	wants := [][][]byte{
		serialWire(t, wb.NewBriefer(m1, v1, beam, 0), htmls),
		serialWire(t, wb.NewBriefer(m2, v2, beam, 0), htmls),
	}

	srv, err := New(m1, v1, Config{Replicas: 1, BeamWidth: beam, QueueDepth: 64, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedReplica{started: make(chan struct{}, 1), release: make(chan struct{})}
	if err := srv.Pool().WrapOne(func(r Replica) Replica { gate.Replica = r; return gate }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type answer struct {
		page   int
		status int
		body   []byte
		err    error
	}
	answers := make(chan answer, len(htmls))
	post := func(page int) {
		status, body, err := postBrief(ts.URL, htmls[page])
		answers <- answer{page, status, body, err}
	}
	go post(0)
	<-gate.started // page 0 is mid-batch on generation 1
	for page := 1; page < len(htmls); page++ {
		go post(page)
	}
	waitCond(t, "the rest to queue behind the gated replica", func() bool {
		return srv.metrics.Queued.Load() == int64(len(htmls)) && len(srv.batchCh) == len(htmls)-2
	})
	if gen, err := srv.Reload(m2, v2); err != nil || gen != 2 {
		t.Fatalf("Reload: generation %d, err %v", gen, err)
	}
	close(gate.release)

	only2 := 0
	for range htmls {
		a := <-answers
		if a.err != nil || a.status != http.StatusOK {
			t.Fatalf("page %d: status %d err %v", a.page, a.status, a.err)
		}
		is1, is2 := bytes.Equal(a.body, wants[0][a.page]), bytes.Equal(a.body, wants[1][a.page])
		switch {
		case !is1 && !is2:
			t.Errorf("page %d: response is neither generation's briefing: %s", a.page, a.body)
		case a.page == 0 && !is1:
			t.Errorf("page 0 was mid-batch on generation 1 but answered %s", a.body)
		case is2 && !is1:
			only2++
		}
	}
	if only2 == 0 {
		t.Fatal("no queued request was answered by generation 2 alone: the swap was not crossed")
	}
	if p := srv.metrics.Panics.Load(); p != 0 {
		t.Fatalf("%d replica panics: an id met a table it was not assigned for", p)
	}
	srv.BeginShutdown()
}

// TestUnbriefableNeverQueues: a page with no visible text is refused by the
// handler's parse, so it answers 422 — with the body it always had — on a
// cached server with no wait queue whose only replica is busy, where anything
// that needed admission would be shed. It takes no slot, forms no batch and is
// no cache lookup.
func TestUnbriefableNeverQueues(t *testing.T) {
	stub := newStubReplica()
	srv := NewFromPool(PoolOf(lift(stub)), Config{QueueDepth: -1, CacheCapacity: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Runs before ts.Close, which waits for the held request: a failed
	// assertion must fail the test, not hang it.
	defer close(stub.release)

	busy := make(chan int, 1)
	go func() {
		status, _, _ := postBrief(ts.URL, "<p>holds the replica</p>")
		busy <- status
	}()
	<-stub.started
	if status, _, err := postBrief(ts.URL, "<p>needs a slot</p>"); err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("briefable page on the full server: status %d err %v, want 429", status, err)
	}

	ms := srv.metrics
	batches, lookups := ms.BatchesTotal.Load(), totalOf(ms.CacheLookups)
	status, body, err := postBrief(ts.URL, "<script>only()</script>")
	if err != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("unbriefable page: status %d err %v, want 422", status, err)
	}
	if string(body) != "serve: no visible text in page\n" {
		t.Fatalf("422 body %q", body)
	}
	if ms.BatchesTotal.Load() != batches || totalOf(ms.CacheLookups) != lookups {
		t.Fatalf("the 422 moved batches_total %d → %d or cache_lookups_total %d → %d",
			batches, ms.BatchesTotal.Load(), lookups, totalOf(ms.CacheLookups))
	}
	if countOf(ms.Requests, Unbriefable) != 1 || countOf(ms.Requests, Overload) != 1 {
		t.Fatalf("unbriefable=%d overload=%d, want 1/1", countOf(ms.Requests, Unbriefable), countOf(ms.Requests, Overload))
	}
	stub.release <- struct{}{}
	if s := <-busy; s != http.StatusOK {
		t.Fatalf("the request holding the replica got %d", s)
	}
}

// TestLongPageBriefsItsHead: a page past maxPageTokens is briefed on its
// first 2048 tokens — the bytes wb.Briefer serves at that truncation — and
// its access-log line carries the count before truncation.
func TestLongPageBriefsItsHead(t *testing.T) {
	m, v, pages := trainedModel(t)
	const beam = 2
	long := strings.Repeat(strings.Join(pageHTML(pages), "\n"), 7)
	tokens := wb.InstanceFromHTML(long, v, 0).NumTokens()
	if tokens < 2*2048 {
		t.Fatalf("fixture too short: %d tokens", tokens)
	}
	want := serialWire(t, wb.NewBriefer(m, v, beam, 2048), []string{long})[0]
	if bytes.Equal(want, serialWire(t, wb.NewBriefer(m, v, beam, 0), []string{long})[0]) {
		t.Fatal("fixture too weak: the head and the whole page brief identically")
	}

	var accessLog bytes.Buffer
	srv, err := New(m, v, Config{Replicas: 1, BeamWidth: beam, MaxBodyBytes: 1 << 20, AccessLog: &accessLog})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body, err := postBrief(ts.URL, long)
	if err != nil || status != http.StatusOK {
		t.Fatalf("long page: status %d err %v", status, err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("long page diverges from the serial path at 2048 tokens:\n got %s\nwant %s", body, want)
	}
	ts.Close() // the handler has returned, so its log line is written
	var entry accessEntry
	if err := json.Unmarshal(bytes.TrimSpace(accessLog.Bytes()), &entry); err != nil {
		t.Fatalf("access log %q: %v", accessLog.Bytes(), err)
	}
	if entry.Tokens != tokens {
		t.Fatalf("access log says %d tokens, the page has %d", entry.Tokens, tokens)
	}
}

// TestOneParsePerRequest: latency_ms.parse counts the requests that missed
// the raw-key alias, one observation each — renderPage is the serving tier's
// only call into htmldom (scripts/check.sh holds it to one line), so the
// histogram's count is the number of DOM parses. A raw hit adds none; a miss,
// a content hit, every coalesced waiter, a 422 and a shed request add one.
func TestOneParsePerRequest(t *testing.T) {
	stub := newHerdReplica()
	srv := NewFromPool(PoolOf(lift(stub)), Config{QueueDepth: -1, CacheCapacity: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ms := srv.metrics
	parses := func() int64 { return ms.Parse.count.Load() }

	// A herd of three on one cold page: a winner and two coalesced waiters.
	const page = "<p>parsed once per request</p>"
	herd := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			status, _, _ := postBrief(ts.URL, page)
			herd <- status
		}()
	}
	<-stub.started
	waitCond(t, "waiters to coalesce", func() bool { return countOf(ms.CacheLookups, CacheCoalesced) == 2 })
	// While the winner holds the only replica: a shed page and a 422.
	if status, _, err := postBrief(ts.URL, "<p>shed after its parse</p>"); err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("second cold page: status %d err %v, want 429", status, err)
	}
	if status, _, err := postBrief(ts.URL, "<style>p{}</style>"); err != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("invisible page: status %d err %v, want 422", status, err)
	}
	close(stub.release)
	for i := 0; i < 3; i++ {
		if status := <-herd; status != http.StatusOK {
			t.Fatalf("herd member got %d", status)
		}
	}
	if got := parses(); got != 5 {
		t.Fatalf("parse count %d after herd of 3 + shed + 422, want 5", got)
	}

	// Raw hit: the same bytes again are answered unparsed.
	if status, _, err := postBrief(ts.URL, page); err != nil || status != http.StatusOK {
		t.Fatalf("raw hit: status %d err %v", status, err)
	}
	if got := parses(); got != 5 {
		t.Fatalf("parse count %d after a raw hit, want still 5", got)
	}
	// Content hit: new bytes, same visible text — parsed to find that out.
	if status, _, err := postBrief(ts.URL, "<!-- mirror -->"+page); err != nil || status != http.StatusOK {
		t.Fatalf("content hit: status %d err %v", status, err)
	}
	if got, hits := parses(), countOf(ms.CacheLookups, CacheHits); got != 6 || hits != 2 {
		t.Fatalf("parse count %d hits %d after a content hit, want 6/2", got, hits)
	}
	if n := stub.encodes.Load(); n != 1 {
		t.Fatalf("%d encodes, want 1", n)
	}
	if total, raw := totalOf(ms.Requests), int64(1); parses() != total-raw {
		t.Fatalf("parse count %d, want requests %d − raw hits %d", parses(), total, raw)
	}
}
