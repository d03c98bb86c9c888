package crawler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"
	"unicode/utf8"

	"webbrief/internal/breaker"
)

// ContextFetcher is the deadline-aware fetch contract. Fetchers that
// implement it (fault.Fetcher, an http wrapper) get a per-fetch
// context.WithTimeout deadline from Config.FetchTimeout; plain Fetchers
// are called without one.
type ContextFetcher interface {
	FetchContext(ctx context.Context, url string) (string, error)
}

// Permanent wraps err to mark it non-retryable: the crawler records the
// failure immediately instead of burning retry attempts (404s, parse-level
// rejections). Transient errors — timeouts, connection resets, injected
// chaos — stay retryable by default.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Failure records one URL the crawl could not fetch, with the reason the
// final attempt gave and how many attempts were spent. Attempts is 0 when
// the URL was never tried at all (circuit breaker open).
type Failure struct {
	URL      string
	Reason   string
	Attempts int
}

// String renders the failure for logs.
func (f Failure) String() string {
	return fmt.Sprintf("%s (%d attempts): %s", f.URL, f.Attempts, f.Reason)
}

// validateBody rejects fetched bodies that cannot be real HTML — the
// garbage-body fault mode, or a truncated/corrupted transfer. Rejection is
// transient: the next attempt may deliver the page intact.
func validateBody(html string) error {
	switch {
	case html == "":
		return errors.New("empty body")
	case strings.ContainsRune(html, 0):
		return errors.New("garbage body: contains NUL byte")
	case !utf8.ValidString(html):
		return errors.New("garbage body: invalid UTF-8")
	}
	return nil
}

// hostOf extracts the rate-limit/breaker key for a URL: the host for
// absolute URLs, "" (one shared bucket — path-only crawls are single-site
// by construction) otherwise.
func hostOf(raw string) string {
	if u, err := url.Parse(raw); err == nil && u.Host != "" {
		return u.Host
	}
	return ""
}

// tokenBucket is a per-host rate limiter: capacity burst, refill rate
// tokens/second. The crawl loop is sequential, so no locking.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// wait blocks (via the crawl's sleep seam) until one token is available,
// then consumes it.
func (b *tokenBucket) wait(now func() time.Time, sleep func(time.Duration)) {
	t := now()
	if !b.last.IsZero() {
		b.tokens += t.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
	if b.tokens < 1 {
		need := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
		sleep(need)
		t = now()
		b.tokens += t.Sub(b.last).Seconds() * b.rate
		b.last = t
		if b.tokens < 1 {
			// A sleep seam that under-advances must not stall the crawl.
			b.tokens = 1
		}
	}
	b.tokens--
}

// crawlState is the per-Crawl resilience machinery.
type crawlState struct {
	cfg   Config
	f     Fetcher
	cf    ContextFetcher // non-nil when f supports deadlines
	rng   *rand.Rand     // backoff jitter; seeded, so replays are exact
	now   func() time.Time
	sleep func(time.Duration)

	buckets  map[string]*tokenBucket
	breakers map[string]*breaker.Breaker
	retries  int // extra attempts spent across the whole crawl
}

func newCrawlState(f Fetcher, cfg Config) *crawlState {
	s := &crawlState{
		cfg:      cfg,
		f:        f,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		now:      cfg.Now,
		sleep:    cfg.Sleep,
		buckets:  map[string]*tokenBucket{},
		breakers: map[string]*breaker.Breaker{},
	}
	if cf, ok := f.(ContextFetcher); ok {
		s.cf = cf
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.sleep == nil {
		s.sleep = time.Sleep
	}
	return s
}

// breaker returns host's circuit breaker, or nil when breaking is disabled.
// It counts consecutive *exhausted* fetches (a URL that failed all its retry
// attempts), not individual attempt errors — a 30%-fault host with working
// retries never trips it, a dead host trips it after BreakerThreshold URLs
// and fails the rest fast until one cooldown probe fetch succeeds.
func (s *crawlState) breaker(host string) *breaker.Breaker {
	if s.cfg.BreakerThreshold <= 0 {
		return nil
	}
	b := s.breakers[host]
	if b == nil {
		cooldown := s.cfg.BreakerCooldown
		if cooldown <= 0 {
			cooldown = 500 * time.Millisecond
		}
		b = breaker.New(s.cfg.BreakerThreshold, cooldown, 1)
		s.breakers[host] = b
	}
	return b
}

// limit blocks until host's token bucket grants one fetch.
func (s *crawlState) limit(host string) {
	if s.cfg.HostRPS <= 0 {
		return
	}
	b := s.buckets[host]
	if b == nil {
		burst := float64(s.cfg.HostBurst)
		if burst < 1 {
			burst = 1
		}
		b = &tokenBucket{rate: s.cfg.HostRPS, burst: burst, tokens: burst}
		s.buckets[host] = b
	}
	b.wait(s.now, s.sleep)
}

// backoff returns the capped-jitter exponential delay before retry attempt
// n (1-based): base·2ⁿ⁻¹ capped at BackoffMax, then equal-jitter — half
// fixed, half drawn from the seeded RNG — so synchronized retries spread
// out but never exceed the cap.
func (s *crawlState) backoff(n int) time.Duration {
	base := s.cfg.BackoffBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := s.cfg.BackoffMax
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << (n - 1)
	if d > max || d <= 0 { // <=0: shift overflow
		d = max
	}
	half := d / 2
	return half + time.Duration(s.rng.Float64()*float64(half))
}

// doFetch runs one attempt, with a deadline when the fetcher supports it.
func (s *crawlState) doFetch(url string) (string, error) {
	if s.cf != nil {
		ctx := context.Background()
		if s.cfg.FetchTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.FetchTimeout)
			defer cancel()
		}
		return s.cf.FetchContext(ctx, url)
	}
	return s.f.Fetch(url)
}

// fetchOne fetches url with the full resilience stack: breaker check, rate
// limit, retry loop with capped-jitter backoff, body validation. On
// failure it returns the Failure to record; the crawl always continues.
func (s *crawlState) fetchOne(url string) (string, *Failure) {
	host := hostOf(url)
	br := s.breaker(host)
	if br != nil && !br.Allow(s.now()) {
		return "", &Failure{URL: url, Reason: fmt.Sprintf("circuit breaker open for host %q", host)}
	}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if attempt > 0 {
			s.sleep(s.backoff(attempt))
			s.retries++
		}
		s.limit(host)
		attempts++
		html, err := s.doFetch(url)
		if err == nil {
			err = validateBody(html)
			if err == nil {
				if br != nil {
					br.Success()
				}
				return html, nil
			}
		}
		lastErr = err
		if IsPermanent(err) {
			break
		}
	}
	if br != nil {
		br.Fail(s.now())
	}
	return "", &Failure{URL: url, Reason: lastErr.Error(), Attempts: attempts}
}
