package briefcache

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Key addresses a cache entry: a SHA-256 digest, either of the page's
// rendered visible text (content key) or of the raw request bytes (alias
// key).
type Key = [sha256.Size]byte

// KeyOf hashes bytes into a Key. It allocates nothing.
func KeyOf(b []byte) Key { return sha256.Sum256(b) }

// Config sizes a Cache. The zero value is usable: 4096 entries over 16
// shards, no expiry, admit-everything policy.
type Config struct {
	// Capacity bounds the total entry count (content entries and raw
	// aliases both count) across all shards (0 = 4096).
	Capacity int
	// Shards is the shard count, rounded up to a power of two (0 = 16).
	// More shards mean less lock contention on the lookup path.
	Shards int
	// DefaultTTL is the freshness lifetime for entries whose domain the
	// policy gives no explicit TTL (0 = entries never expire).
	DefaultTTL time.Duration
	// Policy is the per-domain admission/TTL policy (nil = admit all).
	Policy *Policy
}

// Cache is the sharded content-addressed briefing cache. All methods are
// safe for concurrent use; Lookup and LookupRaw are allocation-free.
type Cache struct {
	shards    []shard
	mask      uint64
	perShard  int
	ttl       time.Duration
	policy    *Policy
	evictions atomic.Int64
}

// entry is one cached briefing (body != nil) or one raw-bytes alias
// pointing at a content entry (body == nil). Entries of both kinds share
// the shard's LRU list and count against its capacity.
type entry struct {
	key        Key
	body       []byte
	target     Key   // alias: the content key this raw key resolves to
	expires    int64 // unix nanos; 0 = never
	prev, next *entry
}

// shard is one lock domain: a key-indexed map over an intrusive LRU list
// (head.next = most recent, head.prev = least recent) plus the in-flight
// computations for keys that hash here.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	head    entry // sentinel
	flights map[Key]*Flight
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if n > cfg.Capacity {
		// Never hand a shard zero capacity.
		for n > 1 && n > cfg.Capacity {
			n >>= 1
		}
	}
	c := &Cache{
		shards:   make([]shard, n),
		mask:     uint64(n - 1),
		perShard: (cfg.Capacity + n - 1) / n,
		ttl:      cfg.DefaultTTL,
		policy:   cfg.Policy,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[Key]*entry, c.perShard)
		sh.flights = make(map[Key]*Flight)
		sh.head.next = &sh.head
		sh.head.prev = &sh.head
	}
	return c
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

func (c *Cache) shardOf(k Key) *shard {
	return &c.shards[binary.LittleEndian.Uint64(k[:8])&c.mask]
}

// expiry converts a TTL into an entry deadline.
func expiry(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return time.Now().Add(ttl).UnixNano()
}

// fresh reports whether an entry is still live at now.
func fresh(e *entry, now int64) bool { return e.expires == 0 || now < e.expires }

// moveFront bumps e to the MRU position of its shard's list. Caller holds
// the shard lock.
func (sh *shard) moveFront(e *entry) {
	if sh.head.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next = sh.head.next
	e.prev = &sh.head
	sh.head.next.prev = e
	sh.head.next = e
}

// remove unlinks e and drops it from the map. Caller holds the shard lock.
func (sh *shard) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	delete(sh.entries, e.key)
}

// insert adds e at the MRU position, evicting from the LRU tail past
// capacity. Caller holds the shard lock; returns evictions performed.
func (sh *shard) insert(e *entry, capacity int) int {
	if old, ok := sh.entries[e.key]; ok {
		sh.remove(old)
	}
	sh.entries[e.key] = e
	e.next = sh.head.next
	e.prev = &sh.head
	sh.head.next.prev = e
	sh.head.next = e
	evicted := 0
	for len(sh.entries) > capacity {
		sh.remove(sh.head.prev)
		evicted++
	}
	return evicted
}

// Lookup returns the cached briefing for a content key, bumping it to MRU.
// The returned slice is shared and must not be mutated. Allocation-free.
func (c *Cache) Lookup(content Key) ([]byte, bool) {
	now := time.Now().UnixNano()
	sh := c.shardOf(content)
	sh.mu.Lock()
	e, ok := sh.entries[content]
	if !ok || e.body == nil {
		sh.mu.Unlock()
		return nil, false
	}
	if !fresh(e, now) {
		sh.remove(e)
		sh.mu.Unlock()
		return nil, false
	}
	sh.moveFront(e)
	body := e.body
	sh.mu.Unlock()
	return body, true
}

// LookupRaw resolves a raw-bytes key through its alias to the cached
// briefing, bumping both to MRU. Allocation-free — this is the repeat-hit
// path that skips the DOM parse entirely.
func (c *Cache) LookupRaw(raw Key) ([]byte, bool) {
	now := time.Now().UnixNano()
	sh := c.shardOf(raw)
	sh.mu.Lock()
	e, ok := sh.entries[raw]
	if !ok || e.body != nil {
		// A content entry under this key would mean a SHA-256 collision
		// between raw bytes and visible text; treat as a miss.
		sh.mu.Unlock()
		return nil, false
	}
	if !fresh(e, now) {
		sh.remove(e)
		sh.mu.Unlock()
		return nil, false
	}
	sh.moveFront(e)
	target := e.target
	sh.mu.Unlock()
	return c.Lookup(target)
}

// Insert stores a briefing under its content key and records the raw-bytes
// alias, copying body (callers typically hand a pooled buffer). ttl <= 0
// means the entry never expires. The stored copy is returned so callers
// can hand the same stable bytes to coalesced waiters.
func (c *Cache) Insert(content, raw Key, body []byte, ttl time.Duration) []byte {
	stable := make([]byte, len(body))
	copy(stable, body)
	exp := expiry(ttl)

	sh := c.shardOf(content)
	sh.mu.Lock()
	ev := sh.insert(&entry{key: content, body: stable, expires: exp}, c.perShard)
	sh.mu.Unlock()
	if ev > 0 {
		c.evictions.Add(int64(ev))
	}
	c.Alias(raw, content)
	return stable
}

// Alias records raw → content so future byte-identical requests take the
// parse-free hit path. The alias inherits the content entry's expiry; an
// alias to a missing or expired entry is not recorded.
func (c *Cache) Alias(raw, content Key) {
	if raw == content {
		return
	}
	now := time.Now().UnixNano()
	csh := c.shardOf(content)
	csh.mu.Lock()
	e, ok := csh.entries[content]
	var exp int64
	if ok && e.body != nil && fresh(e, now) {
		exp = e.expires
	} else {
		ok = false
	}
	csh.mu.Unlock()
	if !ok {
		return
	}
	sh := c.shardOf(raw)
	sh.mu.Lock()
	ev := sh.insert(&entry{key: raw, target: content, expires: exp}, c.perShard)
	sh.mu.Unlock()
	if ev > 0 {
		c.evictions.Add(int64(ev))
	}
}

// Len is the live entry count (content entries + aliases), for /metrics.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Evictions is the lifetime count of capacity evictions, for /metrics.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
