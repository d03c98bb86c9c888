package crawler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeClock is a virtual clock for deterministic resilience tests: Sleep
// advances Now instantly, so backoff, rate-limit and breaker timing replay
// exactly with zero wall-clock cost. The crawl loop is sequential, so no
// locking is needed.
type fakeClock struct {
	t     time.Time
	slept []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) Sleep(d time.Duration) {
	if d > 0 {
		c.t = c.t.Add(d)
	}
	c.slept = append(c.slept, d)
}

// resilientConfig is DefaultConfig with the fake clock wired in and fast
// test-sized backoff.
func resilientConfig(clk *fakeClock) Config {
	cfg := DefaultConfig()
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 8 * time.Millisecond
	cfg.Now = clk.Now
	cfg.Sleep = clk.Sleep
	return cfg
}

// flakyFetcher serves pages from a map but fails each URL's first
// failures[url] fetches with a transient error, counting every call.
type flakyFetcher struct {
	pages    map[string]string
	failures map[string]int
	calls    map[string]int
}

func (f *flakyFetcher) Fetch(url string) (string, error) {
	if f.calls == nil {
		f.calls = map[string]int{}
	}
	f.calls[url]++
	if f.calls[url] <= f.failures[url] {
		return "", fmt.Errorf("transient: connection reset fetching %s", url)
	}
	html, ok := f.pages[url]
	if !ok {
		return "", Permanent(fmt.Errorf("crawler: 404 %s", url))
	}
	return html, nil
}

// TestCrawlPartialFailureReasons is the satellite regression test: a URL
// that stays down must not abort the crawl — the rest of the site is still
// crawled and the failure carries its reason and attempt count.
func TestCrawlPartialFailureReasons(t *testing.T) {
	clk := &fakeClock{}
	f := &flakyFetcher{
		pages: map[string]string{
			"/index.html": `<a href="/down.html">down</a><a href="/up.html">up</a>` + longText(),
			"/up.html":    `<main>` + longText() + `</main>`,
		},
		failures: map[string]int{"/down.html": 1 << 30}, // never recovers
	}
	cfg := resilientConfig(clk)
	cfg.Retries = 2
	res, err := Crawl(f, "/index.html", cfg)
	if err != nil {
		t.Fatalf("partial crawl must not return an error: %v", err)
	}
	if got := res.contentURLs(); len(got) != 2 { // index page is content-rich here
		t.Fatalf("crawl did not continue past the dead URL: content %v", got)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("failed: %+v", res.Failed)
	}
	fl := res.Failed[0]
	if fl.URL != "/down.html" || fl.Attempts != 3 || !strings.Contains(fl.Reason, "connection reset") {
		t.Fatalf("failure %+v, want /down.html after 3 attempts with the transport reason", fl)
	}
	if res.Retries != 2 {
		t.Fatalf("crawl-wide retries %d, want 2", res.Retries)
	}
}

// TestCrawlRetriesRecoverTransient: a URL that fails twice then serves is
// kept, costing exactly its retries; permanent 404s never retry.
func TestCrawlRetriesRecoverTransient(t *testing.T) {
	clk := &fakeClock{}
	f := &flakyFetcher{
		pages: map[string]string{
			"/index.html": `<a href="/flaky.html">f</a>` + longText(),
			"/flaky.html": `<main>` + longText() + `</main>`,
		},
		failures: map[string]int{"/flaky.html": 2},
	}
	cfg := resilientConfig(clk)
	cfg.Retries = 3
	res, err := Crawl(f, "/index.html", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Content) != 2 {
		t.Fatalf("failed=%v content=%v, want the flaky page recovered", res.Failed, res.contentURLs())
	}
	if res.Retries != 2 || f.calls["/flaky.html"] != 3 {
		t.Fatalf("retries=%d calls=%d, want 2 retries / 3 calls", res.Retries, f.calls["/flaky.html"])
	}
	// Each retry slept a backoff: 2 sleeps recorded.
	if len(clk.slept) != 2 {
		t.Fatalf("backoff sleeps %v, want 2", clk.slept)
	}
}

// TestBackoffCappedJitter pins the backoff envelope: attempt n draws from
// [d/2, d) where d = min(base·2ⁿ⁻¹, max), and equal seeds replay equal
// jitter.
func TestBackoffCappedJitter(t *testing.T) {
	cfg := Config{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond, Seed: 5}
	s := newCrawlState(MapFetcher{}, cfg)
	for n := 1; n <= 8; n++ {
		d := cfg.BackoffBase << (n - 1)
		if d > cfg.BackoffMax {
			d = cfg.BackoffMax
		}
		got := s.backoff(n)
		if got < d/2 || got >= d {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v)", n, got, d/2, d)
		}
	}
	// Replay: same seed, same sequence.
	a, b := newCrawlState(MapFetcher{}, cfg), newCrawlState(MapFetcher{}, cfg)
	for n := 1; n <= 8; n++ {
		if x, y := a.backoff(n), b.backoff(n); x != y {
			t.Fatalf("backoff(%d) diverged across equal seeds: %v vs %v", n, x, y)
		}
	}
}

// TestCrawlRateLimitTokenBucket: with HostRPS 10 and burst 1, n fetches
// space out to (n-1)·100ms of virtual time.
func TestCrawlRateLimitTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	pages := map[string]string{
		"/index.html": `<a href="/a.html">a</a><a href="/b.html">b</a>` + longText(),
		"/a.html":     `<main>` + longText() + `</main>`,
		"/b.html":     `<main>` + longText() + `</main>`,
	}
	cfg := resilientConfig(clk)
	cfg.HostRPS = 10
	cfg.HostBurst = 1
	start := clk.Now()
	res, err := Crawl(MapFetcher(pages), "/index.html", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 3 {
		t.Fatalf("visited %d, want 3", res.Visited)
	}
	elapsed := clk.Now().Sub(start)
	if want := 200 * time.Millisecond; elapsed < want || elapsed > want+50*time.Millisecond {
		t.Fatalf("3 fetches at 10 rps took %v of virtual time, want ~%v", elapsed, want)
	}
}

// TestCrawlBreakerFailsFast: after Threshold retry-exhausted URLs, the
// breaker opens and the remaining URLs fail fast — zero fetch attempts,
// an explicit breaker reason — instead of burning the retry budget on a
// dead host.
func TestCrawlBreakerFailsFast(t *testing.T) {
	clk := &fakeClock{}
	links := ""
	for i := 0; i < 6; i++ {
		links += fmt.Sprintf(`<a href="/dead%d.html">d</a>`, i)
	}
	f := &flakyFetcher{
		pages:    map[string]string{"/index.html": links + longText()},
		failures: map[string]int{},
	}
	for i := 0; i < 6; i++ {
		f.failures[fmt.Sprintf("/dead%d.html", i)] = 1 << 30
	}
	cfg := resilientConfig(clk)
	cfg.Retries = 1
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // stays open for the whole crawl
	res, err := Crawl(f, "/index.html", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 6 {
		t.Fatalf("failed %d URLs, want 6", len(res.Failed))
	}
	// First two URLs exhausted retries; the other four were never tried.
	for i, fl := range res.Failed {
		if i < 2 {
			if fl.Attempts != 2 || strings.Contains(fl.Reason, "breaker") {
				t.Fatalf("failure %d: %+v, want 2 real attempts", i, fl)
			}
			continue
		}
		if fl.Attempts != 0 || !strings.Contains(fl.Reason, "circuit breaker open") {
			t.Fatalf("failure %d: %+v, want breaker fail-fast", i, fl)
		}
	}
	totalCalls := 0
	for url, n := range f.calls {
		if url != "/index.html" {
			totalCalls += n
		}
	}
	if totalCalls != 4 { // 2 URLs × 2 attempts
		t.Fatalf("dead host saw %d fetch attempts, want 4 (breaker should stop the rest)", totalCalls)
	}
}

// TestBreakerCooldownProbe exercises the half-open transition directly:
// open → (cooldown) → one probe allowed → success closes, failure reopens.
func TestBreakerCooldownProbe(t *testing.T) {
	b := &hostBreaker{threshold: 2, cooldown: time.Second}
	t0 := time.Unix(0, 0)
	if !b.allow(t0) {
		t.Fatal("closed breaker must allow")
	}
	b.fail(t0)
	b.fail(t0)
	if b.state != breakerOpen {
		t.Fatalf("state %d after %d failures, want open", b.state, b.threshold)
	}
	if b.allow(t0.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker allowed a fetch inside the cooldown")
	}
	if !b.allow(t0.Add(time.Second)) {
		t.Fatal("open breaker must allow one probe after the cooldown")
	}
	if b.state != breakerHalfOpen {
		t.Fatalf("state %d after cooldown, want half-open", b.state)
	}
	// Probe failure reopens immediately (no threshold accumulation).
	b.fail(t0.Add(time.Second))
	if b.state != breakerOpen {
		t.Fatal("failed probe must reopen the breaker")
	}
	if !b.allow(t0.Add(2 * time.Second)) {
		t.Fatal("second probe must be allowed after another cooldown")
	}
	b.success()
	if b.state != breakerClosed || b.consecutive != 0 {
		t.Fatalf("successful probe must close and reset, got state=%d consecutive=%d", b.state, b.consecutive)
	}
}

// deadlineFetcher asserts every fetch carries the configured deadline and
// times the first attempt out.
type deadlineFetcher struct {
	pages    MapFetcher
	deadline time.Duration
	calls    int
	t        *testing.T
}

func (f *deadlineFetcher) Fetch(url string) (string, error) {
	f.t.Fatal("crawler must prefer FetchContext when implemented")
	return "", nil
}

func (f *deadlineFetcher) FetchContext(ctx context.Context, url string) (string, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		f.t.Errorf("fetch %s: no deadline on context", url)
	} else if until := time.Until(dl); until > f.deadline || until < f.deadline/2 {
		f.t.Errorf("fetch %s: deadline %v out, want ~%v", url, until, f.deadline)
	}
	f.calls++
	if f.calls == 1 {
		return "", context.DeadlineExceeded // first attempt "hangs"
	}
	return f.pages.Fetch(url)
}

// TestCrawlPerFetchDeadline: ContextFetchers get a fresh FetchTimeout
// deadline per attempt, and a timed-out attempt is retried.
func TestCrawlPerFetchDeadline(t *testing.T) {
	clk := &fakeClock{}
	f := &deadlineFetcher{
		pages:    MapFetcher{"/index.html": longText()},
		deadline: 75 * time.Millisecond,
		t:        t,
	}
	cfg := resilientConfig(clk)
	cfg.FetchTimeout = 75 * time.Millisecond
	cfg.Retries = 1
	res, err := Crawl(f, "/index.html", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || res.Visited != 1 || res.Retries != 1 {
		t.Fatalf("failed=%v visited=%d retries=%d, want recovered timeout", res.Failed, res.Visited, res.Retries)
	}
}

// TestValidateBody: the garbage-body gate.
func TestValidateBody(t *testing.T) {
	if err := validateBody("<p>fine</p>"); err != nil {
		t.Fatalf("clean body rejected: %v", err)
	}
	for name, body := range map[string]string{
		"empty":        "",
		"NUL byte":     "<p>x\x00y</p>",
		"invalid UTF8": "<p>\xff\xfe</p>",
	} {
		if err := validateBody(body); err == nil {
			t.Fatalf("%s body accepted", name)
		}
	}
}

// TestPermanentWrapping: Permanent survives wrapping and nil-passthrough.
func TestPermanentWrapping(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must be nil")
	}
	base := errors.New("gone")
	p := Permanent(base)
	if !IsPermanent(p) || !IsPermanent(fmt.Errorf("outer: %w", p)) {
		t.Fatal("permanence lost through wrapping")
	}
	if IsPermanent(base) || IsPermanent(errors.New("x")) {
		t.Fatal("plain errors must not be permanent")
	}
	if !errors.Is(p, base) {
		t.Fatal("Permanent must unwrap to the original error")
	}
}
