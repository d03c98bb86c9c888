package serve

import (
	"context"
	"encoding/binary"
	"net/http"
	"time"

	"webbrief/internal/briefcache"
)

// This file interposes the content-addressed briefing cache between
// request validation and the batch scheduler. A cache hit is served
// straight from memory — no replica checkout, no scheduler, no admission
// queue — and the miss path falls through byte-identical to the uncached
// server. Misses on the same cold content key coalesce through
// briefcache.Flight, so a thundering herd computes one briefing.
//
// Keying is two-level (see briefcache): the raw key is the SHA-256 of the
// request body as posted, the content key the SHA-256 of the page's
// rendered visible text. Repeat posts of identical bytes hit the raw alias
// without parsing; posts of different bytes that render to the same
// visible text (markup churn, attribute noise) hit the content entry on the
// handler's one parse, and leave an alias for next time.
//
// Both keys are namespaced by the model generation the request read at this
// stage (genKey), so a hot reload starts from an empty namespace: a page
// cached under the old model is recomputed on the new one instead of
// replaying stale bytes, and old-generation entries age out of the LRU.
//
// Cache counters follow the same exact-partition discipline as
// requests_total: every request that consults the cache is counted in
// cache_lookups_total and in exactly one of cache_hits_total,
// cache_misses_total (flight winners) or cache_coalesced_total (flight
// losers), assigned at first decision — a loser that retries after an
// abandoned flight stays a coalesced request no matter how it is
// eventually served.

// cacheFill carries a miss-path request's fill obligation: the flight it
// won plus the keys and TTL its eventual response should be stored under.
// Exactly one of Complete (via respondOutcome) or Abandon settles the
// flight; abandon is a deferred backstop on every handler exit.
type cacheFill struct {
	flight  *briefcache.Flight
	content briefcache.Key
	raw     briefcache.Key
	ttl     time.Duration
}

// abandon settles the flight as abandoned if nothing else settled it
// first — waiters retry rather than hang when the winner bails out on a
// panic, shed, or client disconnect.
func (f *cacheFill) abandon() {
	if f != nil {
		f.flight.Abandon()
	}
}

// flightResult is the value a winner publishes: the exact response bytes
// on success, or the terminal failure outcome (replica failure) the losers
// should replay.
type flightResult struct {
	body []byte
	o    pipelineOutcome
}

// genKey is the cache key of b under model generation gen: the SHA-256 of b
// with the generation folded into its first eight bytes. Folding (rather
// than hashing a prefix) keeps the raw-key lookup one allocation-free
// SHA-256 of the body.
func genKey(gen int64, b []byte) briefcache.Key {
	k := briefcache.KeyOf(b)
	binary.LittleEndian.PutUint64(k[:8], binary.LittleEndian.Uint64(k[:8])^uint64(gen))
	return k
}

// cacheDomain extracts the page's source domain from the optional ?src=
// query parameter — the admission/TTL policy key. The parameter accepts a
// bare domain or a URL (briefcache.SrcDomain does the stripping); empty
// means unattributed, which policies admit. The RawQuery gate keeps the
// common no-query request allocation-free.
func cacheDomain(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return briefcache.SrcDomain(r.URL.Query().Get("src"))
}

// rawLookup is what level 1 of the cache stage learned about a request it
// could not serve, for cacheServe to continue from.
type rawLookup struct {
	consult bool   // false: the request bypasses the cache (no cache, denied domain)
	domain  string // ?src= policy key
	// gen is read once: every key this request builds — lookups, flight,
	// fill — lives in one generation's namespace.
	gen    int64
	rawKey briefcache.Key
	start  time.Time // cache-hit latency runs from here
}

// cacheServeRaw is level 1 of the cache stage, keyed on the raw bytes:
// allocation-free — no parse, one SHA-256 — and needing no context, so it
// runs before the request's deadline exists. It reports whether it served
// the response.
func (s *Server) cacheServeRaw(w http.ResponseWriter, lg *accessEntry, r *http.Request, body []byte) (rawLookup, bool) {
	c := s.cache
	m := s.metrics
	domain := cacheDomain(r)
	if !c.Admit(domain) {
		return rawLookup{}, false
	}
	lk := rawLookup{consult: true, domain: domain, gen: s.generation.Load(), start: time.Now()}
	lk.rawKey = genKey(lk.gen, body)
	if out, ok := c.LookupRaw(lk.rawKey); ok {
		m.CacheLookups.Begin()
		m.CacheLookups.End(CacheHits)
		s.writeBrief(w, lg, out)
		m.CacheHitLatency.Observe(time.Since(lk.start))
		return lk, true
	}
	return lk, false
}

// cacheServe runs the rest of the cache stage for a request level 1 missed,
// keyed on the visible text handleBrief's parse rendered (unbriefable pages
// were refused there and never get here). It returns (nil, true) when the
// response was fully served from cache or a coalesced flight, and
// (fill, false) for a miss this request must compute: the caller proceeds to
// admission and hands fill to respondOutcome, with fill.abandon deferred as
// backstop.
func (s *Server) cacheServe(w http.ResponseWriter, lg *accessEntry, ctx context.Context, visible string, lk rawLookup) (*cacheFill, bool) {
	c := s.cache
	m := s.metrics
	domain, gen, rawKey, start := lk.domain, lk.gen, lk.rawKey, lk.start

	// Level 2: rendered visible text.
	contentKey := genKey(gen, []byte(visible))
	if out, ok := c.Lookup(contentKey); ok {
		m.CacheLookups.Begin()
		m.CacheLookups.End(CacheHits)
		c.Alias(rawKey, contentKey) // next identical post skips the parse
		s.writeBrief(w, lg, out)
		m.CacheHitLatency.Observe(time.Since(start))
		return nil, true
	}

	// Miss: win the flight and compute, or coalesce onto the winner. The
	// partition counter is assigned at the first decision and never again,
	// so retries after an abandoned flight don't double-count.
	m.CacheLookups.Begin()
	counted := false
	for {
		f, winner := c.BeginFlight(contentKey)
		if winner {
			if !counted {
				m.CacheLookups.End(CacheMisses)
			}
			return &cacheFill{flight: f, content: contentKey, raw: rawKey, ttl: c.TTLFor(domain)}, false
		}
		if !counted {
			m.CacheLookups.End(CacheCoalesced)
			counted = true
		}
		v, abandoned, err := f.Wait(ctx)
		if err != nil {
			s.failCtx(w, lg, err)
			return nil, true
		}
		if abandoned {
			// The winner bailed without a result. Re-check the cache (it
			// may have filled) and race for the next flight.
			if out, ok := c.Lookup(contentKey); ok {
				s.writeBrief(w, lg, out)
				return nil, true
			}
			continue
		}
		res := v.(flightResult)
		if res.body != nil {
			s.writeBrief(w, lg, res.body)
			return nil, true
		}
		// Terminal failure: replay the winner's outcome.
		s.respondOutcome(w, lg, res.o, nil)
		return nil, true
	}
}
