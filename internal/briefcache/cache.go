package briefcache

import (
	"crypto/sha256"
	"sync"
	"time"
)

// Key addresses a cache entry: a SHA-256 digest, either of the page's
// rendered visible text (content key) or of the raw request bytes (alias
// key).
type Key = [sha256.Size]byte

// KeyOf hashes bytes into a Key. It allocates nothing.
func KeyOf(b []byte) Key { return sha256.Sum256(b) }

// Config sizes a Cache. The zero value is usable: 4096 briefings, no expiry,
// admit-everything policy.
type Config struct {
	// Capacity bounds the number of briefings held (0 = 4096). A briefing's
	// raw alias lives inside its entry and does not count.
	Capacity int
	// DefaultTTL is the freshness lifetime for entries whose domain the
	// policy gives no explicit TTL (0 = entries never expire).
	DefaultTTL time.Duration
	// Policy is the per-domain admission/TTL policy (nil = admit all).
	Policy *Policy
}

// Cache is the content-addressed briefing cache: one entry per briefing,
// found by its content key or by its one raw alias, evicted by SIEVE (Zhang
// et al., NSDI '24). Entries sit in insertion order; a hit only sets the
// entry's visited bit, and on a full insert the hand sweeps from the oldest
// entry towards the newest, clearing visited bits until it reaches an
// unvisited entry, which it evicts. The hand stays where it stopped for the
// next eviction. All methods are safe for concurrent use; Lookup and
// LookupRaw are allocation-free.
type Cache struct {
	mu sync.Mutex
	// keys maps both content keys and raw aliases to their entry. A key is
	// its entry's content key or its alias, never both, so e.content == k
	// tells which.
	keys           map[Key]*entry
	newest, oldest *entry
	hand           *entry // next eviction candidate; nil = start at oldest
	n              int    // briefings held
	capacity       int
	evictions      int64
	flights        map[Key]*Flight

	ttl    time.Duration
	policy *Policy
}

// entry is one cached briefing and its raw alias.
type entry struct {
	content Key
	// raw is the latest raw-bytes alias recorded for this briefing;
	// raw == content means none (Alias never records raw == content).
	raw          Key
	body         []byte
	expires      int64 // unix nanos; 0 = never
	visited      bool  // hit since the hand last passed
	newer, older *entry
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	return &Cache{
		keys:     make(map[Key]*entry),
		capacity: cfg.Capacity,
		flights:  make(map[Key]*Flight),
		ttl:      cfg.DefaultTTL,
		policy:   cfg.Policy,
	}
}

// Admit reports whether pages from domain may enter the cache.
func (c *Cache) Admit(domain string) bool { return c.policy.Admit(domain) }

// TTLFor resolves the freshness lifetime for a page domain: the policy's
// class TTL, else the policy default, else the cache default (0 = never
// expires).
func (c *Cache) TTLFor(domain string) time.Duration {
	if d := c.policy.TTL(domain); d > 0 {
		return d
	}
	return c.ttl
}

// expiry converts a TTL into an entry deadline.
func expiry(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return time.Now().Add(ttl).UnixNano()
}

// live returns the entry k names if it is fresh at now, removing it if it
// has expired. Caller holds c.mu.
func (c *Cache) live(k Key, now int64) *entry {
	e := c.keys[k]
	if e != nil && e.expires != 0 && now >= e.expires {
		c.remove(e)
		return nil
	}
	return e
}

// remove unlinks e and deletes both its keys. Caller holds c.mu.
func (c *Cache) remove(e *entry) {
	if c.hand == e {
		c.hand = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	e.newer, e.older = nil, nil
	c.unalias(e)
	delete(c.keys, e.content)
	c.n--
}

// evict runs the SIEVE hand: from where it last stopped towards the newest
// entry, wrapping to the oldest, it clears visited bits and evicts the first
// entry it finds unvisited. Caller holds c.mu and c.n > 0.
func (c *Cache) evict() {
	e := c.hand
	if e == nil {
		e = c.oldest
	}
	for e.visited {
		e.visited = false
		if e = e.newer; e == nil {
			e = c.oldest
		}
	}
	c.hand = e.newer
	c.remove(e)
	c.evictions++
}

// unalias drops e's raw alias, if it has one. Caller holds c.mu.
func (c *Cache) unalias(e *entry) {
	if e.raw != e.content {
		delete(c.keys, e.raw)
		e.raw = e.content
	}
}

// alias makes raw e's one alias, taking it over from any other briefing
// that held it. A raw key that is another briefing's content key is not
// recorded: the briefing's own key wins. Caller holds c.mu.
func (c *Cache) alias(e *entry, raw Key) {
	if raw == e.content || raw == e.raw {
		return
	}
	if o := c.keys[raw]; o != nil {
		if o.content == raw {
			return
		}
		c.unalias(o)
	}
	c.unalias(e)
	e.raw = raw
	c.keys[raw] = e
}

// Lookup returns the cached briefing for a content key and marks it
// visited. The returned slice is shared and must not be mutated.
// Allocation-free.
func (c *Cache) Lookup(content Key) ([]byte, bool) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	e := c.live(content, now)
	if e == nil || e.content != content {
		c.mu.Unlock()
		return nil, false
	}
	e.visited = true
	body := e.body
	c.mu.Unlock()
	return body, true
}

// LookupRaw resolves a raw-bytes key through its alias to the cached
// briefing and marks it visited. It matches raw keys only. Allocation-free
// — this is the repeat-hit path that skips the DOM parse entirely.
func (c *Cache) LookupRaw(raw Key) ([]byte, bool) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	e := c.live(raw, now)
	if e == nil || e.content == raw {
		c.mu.Unlock()
		return nil, false
	}
	e.visited = true
	body := e.body
	c.mu.Unlock()
	return body, true
}

// Insert stores a briefing under its content key and makes raw its alias,
// copying body (callers typically hand a pooled buffer). ttl <= 0 means the
// entry never expires. A briefing already held under content is refreshed in
// place; a new one past capacity evicts one briefing first. The stored copy
// is returned so callers can hand the same stable bytes to coalesced waiters.
func (c *Cache) Insert(content, raw Key, body []byte, ttl time.Duration) []byte {
	stable := make([]byte, len(body))
	copy(stable, body)
	exp := expiry(ttl)

	c.mu.Lock()
	e := c.keys[content]
	if e != nil && e.content != content {
		c.unalias(e) // content was another briefing's alias
		e = nil
	}
	if e == nil {
		if c.n >= c.capacity {
			c.evict()
		}
		e = &entry{content: content, raw: content, older: c.newest}
		if c.newest != nil {
			c.newest.newer = e
		} else {
			c.oldest = e
		}
		c.newest = e
		c.keys[content] = e
		c.n++
	}
	e.body, e.expires = stable, exp
	c.alias(e, raw)
	c.mu.Unlock()
	return stable
}

// Alias makes raw the alias of the briefing held under content, so future
// byte-identical requests take the parse-free hit path; the briefing's
// previous alias is dropped. An alias to a missing or expired briefing, or
// with raw == content, is not recorded.
func (c *Cache) Alias(raw, content Key) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	if e := c.live(content, now); e != nil && e.content == content {
		c.alias(e, raw)
	}
	c.mu.Unlock()
}

// Len is the number of briefings held, for /metrics.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Evictions is the lifetime count of briefings evicted for capacity, for
// /metrics.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
