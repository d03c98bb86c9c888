package briefcache

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(s string) Key { return KeyOf([]byte(s)) }

// TestCacheInsertLookup: content lookups return what was inserted, raw
// lookups resolve through the alias, and the stored bytes are a stable
// copy decoupled from the caller's (possibly pooled) buffer.
func TestCacheInsertLookup(t *testing.T) {
	c := New(Config{Capacity: 64})
	body := []byte("briefing body\n")
	stable := c.Insert(key("content"), key("raw"), body, 0)
	body[0] = 'X' // caller reuses its buffer

	got, ok := c.Lookup(key("content"))
	if !ok || string(got) != "briefing body\n" {
		t.Fatalf("Lookup = %q, %v; want stable copy", got, ok)
	}
	if string(stable) != "briefing body\n" {
		t.Fatalf("Insert returned unstable bytes %q", stable)
	}
	got, ok = c.LookupRaw(key("raw"))
	if !ok || string(got) != "briefing body\n" {
		t.Fatalf("LookupRaw = %q, %v", got, ok)
	}
	if _, ok := c.Lookup(key("missing")); ok {
		t.Fatal("Lookup(missing) hit")
	}
	if _, ok := c.LookupRaw(key("missing")); ok {
		t.Fatal("LookupRaw(missing) hit")
	}
	// A raw lookup with a content key (and vice versa) is a miss, not a
	// type confusion.
	if _, ok := c.LookupRaw(key("content")); ok {
		t.Fatal("LookupRaw(content key) hit")
	}
	if _, ok := c.Lookup(key("raw")); ok {
		t.Fatal("Lookup(alias key) hit")
	}
}

// tick is one step of a test's clock. An hour, so the wall clock's own
// progress while a test runs never decides an expiry.
const tick = time.Hour

// advance moves c's clock forward by d: every deadline comes d closer.
func advance(c *Cache, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.newest; e != nil; e = e.older {
		if e.expires != 0 {
			e.expires -= int64(d)
		}
	}
}

// checkStructure asserts what every operation must leave true: at most
// capacity briefings, a list linked both ways that holds exactly the
// briefings counted, each reachable by its content key and by its alias if
// it has one, no other key in the map, and the hand on a listed entry.
func checkStructure(t *testing.T, c *Cache, capacity int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n, aliases, handListed := 0, 0, c.hand == nil
	var newer *entry
	for e := c.newest; e != nil; e = e.older {
		if e.newer != newer {
			t.Fatalf("entry %d: newer link broken", n)
		}
		if c.keys[e.content] != e {
			t.Fatalf("entry %d: not found under its content key", n)
		}
		if e.raw != e.content {
			aliases++
			if c.keys[e.raw] != e {
				t.Fatalf("entry %d: not found under its alias", n)
			}
		}
		handListed = handListed || c.hand == e
		newer = e
		n++
	}
	switch {
	case newer != c.oldest:
		t.Fatal("oldest is not the list's last entry")
	case n != c.n:
		t.Fatalf("list holds %d entries, count says %d", n, c.n)
	case n > capacity:
		t.Fatalf("%d briefings held, capacity %d", n, capacity)
	case len(c.keys) != n+aliases:
		t.Fatalf("map holds %d keys for %d briefings and %d aliases", len(c.keys), n, aliases)
	case !handListed:
		t.Fatal("hand points outside the list")
	}
}

// cacheRows is the cache's behaviour table (the SNIPPETS domainset idiom):
// each row an operation sequence, each step checked as it runs, and the
// structure after every step. A step is
//
//	insert <content> <raw> <body> [ttl in ticks]
//	alias <raw> <content>
//	get <content> <body|miss>   (Lookup)
//	raw <raw> <body|miss>       (LookupRaw)
//	tick                        (advance one tick)
//	len <n>
//	evictions <n>
var cacheRows = []struct {
	name     string
	capacity int
	steps    []string
}{
	{"capacity counts briefings not keys", 2, []string{
		"insert c1 r1 v1", "insert c2 r2 v2", "len 2",
		"raw r1 v1", "raw r2 v2", "get c1 v1", "get c2 v2", "evictions 0",
		"insert c3 r3 v3", "len 2", "evictions 1",
	}},
	{"an alias dies with its briefing on eviction", 1, []string{
		"insert c1 r1 v1", "insert c2 r2 v2", "evictions 1",
		"raw r1 miss", "get c1 miss", "raw r2 v2", "get c2 v2", "len 1",
	}},
	{"an alias dies with its briefing on expiry", 4, []string{
		"insert c1 r1 v1 2", "tick", "raw r1 v1", "get c1 v1",
		"tick", "raw r1 miss", "len 0", "get c1 miss",
		"insert c2 r2 v2 1", "tick", "get c2 miss", "len 0", "raw r2 miss",
		"insert c3 r3 v3", "tick", "tick", "raw r3 v3", "evictions 0",
	}},
	{"re-aliasing drops the old raw key", 4, []string{
		"insert c1 r1 v1", "alias r2 c1", "raw r2 v1", "raw r1 miss", "get c1 v1", "len 1",
		"insert c1 r3 w1", "raw r3 w1", "raw r2 miss", "get c1 w1", "len 1",
		"insert c2 r2 v2", "alias r3 c2", "raw r3 v2",
		"alias r9 c1", "raw r9 w1", "raw r3 v2", "len 2",
	}},
	{"an alias to nothing live or to itself records nothing", 4, []string{
		"alias r1 c1", "raw r1 miss", "len 0",
		"insert c2 r2 v2 1", "tick", "alias r3 c2", "len 0",
		"insert c2 c2 w2", "raw r3 miss", "get c2 w2",
		"insert c4 r4 v4", "alias c4 c4", "raw c4 miss", "raw r4 v4",
		"insert c5 c5 v5", "raw c5 miss", "get c5 v5",
		"alias c4 c5", "raw c4 miss", "get c4 v4", "raw r4 v4", "len 3",
	}},
	{"SIEVE keeps a visited briefing over an unvisited one", 2, []string{
		"insert c1 r1 v1", "insert c2 r2 v2", "get c1 v1",
		"insert c3 r3 v3", "get c2 miss", "raw r2 miss", "get c1 v1", "get c3 v3",
	}},
	{"a hit does not reorder: with all visited the oldest goes", 2, []string{
		"insert c1 r1 v1", "insert c2 r2 v2", "get c2 v2", "get c1 v1",
		"insert c3 r3 v3", "get c1 miss", "get c2 v2", "get c3 v3",
	}},
	{"the hand resumes where it stopped", 3, []string{
		"insert c1 r1 v1", "insert c2 r2 v2", "insert c3 r3 v3", "get c1 v1",
		"insert c4 r4 v4", "get c2 miss",
		"insert c5 r5 v5", "get c3 miss", "get c1 v1", "get c4 v4", "get c5 v5", "evictions 2",
	}},
}

func TestCacheBehaviour(t *testing.T) {
	for _, row := range cacheRows {
		t.Run(row.name, func(t *testing.T) {
			c := New(Config{Capacity: row.capacity})
			for i, step := range row.steps {
				f := strings.Fields(step)
				var got string
				switch f[0] {
				case "insert":
					var ttl time.Duration
					if len(f) == 5 {
						n, _ := strconv.Atoi(f[4])
						ttl = time.Duration(n) * tick
					}
					c.Insert(key(f[1]), key(f[2]), []byte(f[3]), ttl)
				case "alias":
					c.Alias(key(f[1]), key(f[2]))
				case "get", "raw":
					lookup := c.Lookup
					if f[0] == "raw" {
						lookup = c.LookupRaw
					}
					body, ok := lookup(key(f[1]))
					if got = "miss"; ok {
						got = string(body)
					}
				case "tick":
					advance(c, tick)
				case "len":
					got = strconv.Itoa(c.Len())
				case "evictions":
					got = strconv.FormatInt(c.Evictions(), 10)
				default:
					t.Fatalf("step %d: unknown op %q", i, step)
				}
				if want := f[len(f)-1]; got != "" && got != want {
					t.Fatalf("step %d %q: got %s", i, step, got)
				}
				checkStructure(t, c, row.capacity)
			}
		})
	}
}

// TestCacheTTLExpiry: expired entries read as misses and are removed;
// aliases inherit the content entry's expiry.
func TestCacheTTLExpiry(t *testing.T) {
	c := New(Config{Capacity: 16, DefaultTTL: time.Hour})
	c.Insert(key("content"), key("raw"), []byte("x"), 5*time.Millisecond)
	if _, ok := c.Lookup(key("content")); !ok {
		t.Fatal("fresh entry should hit")
	}
	time.Sleep(10 * time.Millisecond)
	if _, ok := c.Lookup(key("content")); ok {
		t.Fatal("expired content entry should miss")
	}
	if _, ok := c.LookupRaw(key("raw")); ok {
		t.Fatal("alias to expired entry should miss")
	}

	// ttl <= 0 on Insert means no expiry, regardless of DefaultTTL —
	// resolution happens in TTLFor, not Insert.
	c.Insert(key("forever"), key("rawforever"), []byte("y"), 0)
	time.Sleep(2 * time.Millisecond)
	if _, ok := c.Lookup(key("forever")); !ok {
		t.Fatal("no-expiry entry should hit")
	}
}

// TestCacheTTLFor: policy class TTL, then policy default, then cache
// default.
func TestCacheTTLFor(t *testing.T) {
	p := newPolicy(
		[]string{"deny.example.com"},
		[]TTLRule{{TTL: time.Second, Domains: []string{"fast.example.com"}}},
		time.Minute,
	)
	c := New(Config{DefaultTTL: time.Hour, Policy: p})
	if got := c.TTLFor("live.fast.example.com"); got != time.Second {
		t.Errorf("class TTL = %v, want 1s", got)
	}
	if got := c.TTLFor("other.example.com"); got != time.Minute {
		t.Errorf("policy default TTL = %v, want 1m", got)
	}
	if !c.Admit("other.example.com") || c.Admit("sub.deny.example.com") {
		t.Error("admission policy not applied")
	}

	// No policy: cache default rules.
	c2 := New(Config{DefaultTTL: time.Hour})
	if got := c2.TTLFor("anything"); got != time.Hour {
		t.Errorf("cache default TTL = %v, want 1h", got)
	}
	if !c2.Admit("anything") {
		t.Error("nil policy must admit")
	}
}

// TestCacheLookupAllocFree gates the hot path: both lookup flavors must be
// allocation-free — the cache-hit acceptance criterion.
func TestCacheLookupAllocFree(t *testing.T) {
	c := New(Config{Capacity: 128})
	content, raw := key("content"), key("raw")
	c.Insert(content, raw, []byte("body"), time.Hour)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.Lookup(content); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.LookupRaw(raw); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("LookupRaw allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = KeyOf([]byte("body bytes to hash"))
	}); n != 0 {
		t.Errorf("KeyOf allocates %.1f/op, want 0", n)
	}
}

// TestFlightWinnerLoser: first Begin wins, losers wait and read the
// winner's value, and the flight is gone from the table after settling.
func TestFlightWinnerLoser(t *testing.T) {
	c := New(Config{})
	k := key("flight")
	f, winner := c.BeginFlight(k)
	if !winner {
		t.Fatal("first BeginFlight must win")
	}
	f2, winner2 := c.BeginFlight(k)
	if winner2 || f2 != f {
		t.Fatal("second BeginFlight must join the first flight")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, abandoned, err := f2.Wait(context.Background())
		if err != nil || abandoned || v.(string) != "result" {
			t.Errorf("Wait = %v, %v, %v", v, abandoned, err)
		}
	}()
	f.Complete("result")
	<-done

	// Settled flights leave the table: a new Begin wins a fresh flight.
	f3, winner3 := c.BeginFlight(k)
	if !winner3 || f3 == f {
		t.Fatal("settled flight must be removed from the table")
	}
	f3.Abandon()
}

// TestFlightAbandonIdempotent: Abandon after Complete is a no-op, so a
// deferred Abandon can back-stop the winner's exits; double Complete keeps
// the first value.
func TestFlightAbandonIdempotent(t *testing.T) {
	c := New(Config{})
	f, _ := c.BeginFlight(key("k"))
	f.Complete("first")
	f.Abandon()
	f.Complete("second")
	v, abandoned, err := f.Wait(context.Background())
	if err != nil || abandoned || v.(string) != "first" {
		t.Fatalf("Wait = %v, %v, %v; want first,false,nil", v, abandoned, err)
	}

	// Pure abandon wakes waiters with no value.
	f2, _ := c.BeginFlight(key("k2"))
	go f2.Abandon()
	v, abandoned, err = f2.Wait(context.Background())
	if err != nil || !abandoned || v != nil {
		t.Fatalf("abandoned Wait = %v, %v, %v", v, abandoned, err)
	}
}

// TestFlightWaitHonorsContext: a loser's own deadline wins over a stuck
// winner.
func TestFlightWaitHonorsContext(t *testing.T) {
	c := New(Config{})
	f, _ := c.BeginFlight(key("stuck"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := f.Wait(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Wait err = %v, want DeadlineExceeded", err)
	}
	f.Abandon()
}

// TestFlightLateCallerLooksAgain: a caller whose lookup missed just before a
// flight landed — its briefing inserted — does not win a second flight:
// BeginFlight hands it one already settled as abandoned, the signal to look
// again, and the lookup hits. Once the briefing is gone, evicted or expired,
// the next caller wins a new flight.
func TestFlightLateCallerLooksAgain(t *testing.T) {
	c := New(Config{Capacity: 1})
	k := key("landed")
	f, _ := c.BeginFlight(k)
	c.Insert(k, key("raw-landed"), []byte("body"), tick)
	f.Complete("result")
	late, winner := c.BeginFlight(k)
	if winner {
		t.Fatal("a late caller won a second flight for a cached briefing")
	}
	if v, abandoned, err := late.Wait(context.Background()); err != nil || !abandoned || v != nil {
		t.Fatalf("late Wait = %v, %v, %v; want nil, true, nil (look again)", v, abandoned, err)
	}
	if b, ok := c.Lookup(k); !ok || string(b) != "body" {
		t.Fatalf("the second look = %q, %v", b, ok)
	}

	c.Insert(key("other"), key("raw-other"), []byte("evicts"), 0)
	f2, winner := c.BeginFlight(k)
	if !winner {
		t.Fatal("no new flight for an evicted briefing")
	}
	c.Insert(k, key("raw-landed"), []byte("body"), tick)
	f2.Complete("again")
	advance(c, tick)
	if _, winner := c.BeginFlight(k); !winner {
		t.Fatal("no new flight for an expired briefing")
	}
	checkStructure(t, c, 1)
}

// TestFlightHerdComputesOnce is the cache-level thundering-herd property:
// N concurrent goroutines racing one cold key produce exactly one winner,
// and every loser reads the winner's bytes.
func TestFlightHerdComputesOnce(t *testing.T) {
	c := New(Config{Capacity: 64})
	const n = 32
	k := key("cold")
	var computed atomic.Int64
	var winners atomic.Int64
	results := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for {
				if b, ok := c.Lookup(k); ok {
					results[i] = string(b)
					return
				}
				f, winner := c.BeginFlight(k)
				if winner {
					winners.Add(1)
					computed.Add(1) // the expensive compute, exactly once
					body := c.Insert(k, key("raw-cold"), []byte("computed"), 0)
					f.Complete(string(body))
					results[i] = string(body)
					return
				}
				v, abandoned, err := f.Wait(context.Background())
				if err != nil {
					t.Errorf("waiter %d: %v", i, err)
					return
				}
				if abandoned {
					continue
				}
				results[i] = v.(string)
				return
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if computed.Load() != 1 || winners.Load() != 1 {
		t.Fatalf("computed %d times with %d winners, want exactly 1", computed.Load(), winners.Load())
	}
	for i, r := range results {
		if r != "computed" {
			t.Fatalf("goroutine %d got %q", i, r)
		}
	}
}

// TestCacheConcurrentChurn hammers one small cache from many goroutines
// under -race: inserts, lookups, aliases and evictions must stay
// internally consistent, and every hit, raw or content, must serve the body
// of its own briefing.
func TestCacheConcurrentChurn(t *testing.T) {
	c := New(Config{Capacity: 32, DefaultTTL: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := (g*31 + i) % 48
				k := key(fmt.Sprintf("k%d", n))
				r := key(fmt.Sprintf("r%d", n))
				want := fmt.Sprintf("v%d", n)
				var got []byte
				hit := false
				switch i % 3 {
				case 0:
					c.Insert(k, r, []byte(want), time.Hour)
				case 1:
					got, hit = c.Lookup(k)
				default:
					got, hit = c.LookupRaw(r)
				}
				if hit && string(got) != want {
					t.Errorf("goroutine %d: hit for briefing %d served %q", g, n, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkStructure(t, c, 32)
}

// TestZipfReplayMissRatio replays the shape of the benchmark's fleet-mixed
// traffic: a seeded Zipf(1.1) stream over 2 000 pages, each with one raw
// form, pages split 55/45 between two caches of capacity 512 (the fleet's
// two backends), 400 warm-up requests and then 36 000 measured ones, each
// served as the server's cache stage serves it — raw lookup, else content
// lookup and alias, else a miss that inserts. With one entry per briefing
// and SIEVE the miss ratio is at most 0.11; a cache that gives each raw
// alias an entry of its own and evicts by LRU reads ≈ 0.17 on this replay.
func TestZipfReplayMissRatio(t *testing.T) {
	const pages, capacity, warm, measured = 2000, 512, 400, 36000
	rng := rand.New(rand.NewSource(1))
	caches := [2]*Cache{New(Config{Capacity: capacity}), New(Config{Capacity: capacity})}
	type page struct {
		cache        *Cache
		raw, content Key
	}
	universe := make([]page, pages)
	for p := range universe {
		c := caches[0]
		if rng.Float64() >= 0.55 {
			c = caches[1]
		}
		universe[p] = page{c, key(fmt.Sprint("raw ", p)), key(fmt.Sprint("content ", p))}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, pages-1)
	body := []byte(`{"Topic":["cached","briefing"]}` + "\n")
	misses := 0
	for i := 0; i < warm+measured; i++ {
		p := universe[zipf.Uint64()]
		if _, ok := p.cache.LookupRaw(p.raw); ok {
			continue
		}
		if _, ok := p.cache.Lookup(p.content); ok {
			p.cache.Alias(p.raw, p.content)
			continue
		}
		p.cache.Insert(p.content, p.raw, body, 0)
		if i >= warm {
			misses++
		}
	}
	ratio := float64(misses) / measured
	t.Logf("miss ratio %.4f (%d of %d), evictions %d + %d", ratio, misses, measured,
		caches[0].Evictions(), caches[1].Evictions())
	if ratio > 0.11 {
		t.Fatalf("miss ratio %.4f, want <= 0.11", ratio)
	}
}

// refCache is FuzzCacheOps's reference: the cache's contract in plain maps,
// on a clock counted in ticks.
type refCache struct {
	now     int
	entries map[Key]*refEntry // content key → briefing
	aliases map[Key]Key       // raw key → content key
}

type refEntry struct {
	body string
	exp  int // tick the briefing expires at; 0 = never
}

// owner is the content key of the briefing k names: k itself, or the
// briefing k is the alias of.
func (r *refCache) owner(k Key) (Key, bool) {
	if _, ok := r.entries[k]; ok {
		return k, true
	}
	c, ok := r.aliases[k]
	return c, ok
}

// touch drops the briefing k names if it has expired, as every lookup of k
// does, and reports whether it did.
func (r *refCache) touch(k Key) bool {
	c, ok := r.owner(k)
	if !ok {
		return false
	}
	if e := r.entries[c]; e.exp == 0 || r.now < e.exp {
		return false
	}
	r.drop(c)
	return true
}

// drop removes a briefing and its alias.
func (r *refCache) drop(c Key) {
	delete(r.entries, c)
	for raw, to := range r.aliases {
		if to == c {
			delete(r.aliases, raw)
		}
	}
}

// alias makes raw the one alias of briefing c, unless raw is c or another
// briefing's content key.
func (r *refCache) alias(raw, c Key) {
	if _, ok := r.entries[raw]; ok || raw == c {
		return
	}
	for k, to := range r.aliases {
		if to == c {
			delete(r.aliases, k)
		}
	}
	r.aliases[raw] = c
}

// peek reads the cache's briefings and aliases without touching them.
func peek(c *Cache) (bodies map[Key]string, aliases map[Key]Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bodies, aliases = map[Key]string{}, map[Key]Key{}
	for e := c.newest; e != nil; e = e.older {
		bodies[e.content] = string(e.body)
		if e.raw != e.content {
			aliases[e.raw] = e.content
		}
	}
	return bodies, aliases
}

// FuzzCacheOps decodes random sequences of Insert, Alias, Lookup, LookupRaw
// and clock ticks over eight keys — content keys k0…k4, raw keys k3…k7, so a
// raw key can also be another briefing's content key — and runs each against
// refCache. Which briefing SIEVE evicts is the one thing the reference does
// not predict: after an Insert that must evict, it reads the cache's key set
// and drops the one briefing missing from it. Everything else is checked
// after every operation: each lookup's result (a hit returns the body last
// inserted under that content key, a raw hit the briefing it was last
// aliased to, nothing resolves once evicted or expired), the exact set of
// briefings, bodies and aliases, Len() ≤ capacity, and evictions ==
// inserts − removals − Len().
//
// Of nine mutations of the one-entry cache, each seen to fail
// `go test ./internal/briefcache` when it was written, six fail here, from
// the seeds or within 20 s of fuzzing: a removal keeping the alias, a
// re-alias keeping the old key, LookupRaw matching content keys, an alias
// stealing another briefing's content key, Alias recording onto an expired
// briefing, Insert over another briefing's alias keeping it. The reference
// predicts no victims, so three are caught only by TestCacheBehaviour (the
// hand restarting at the oldest entry, Lookup setting no visited bit) and
// TestFlightLateCallerLooksAgain (a late BeginFlight winning).
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{1, 0, 0x08, 0, 0x09, 3, 0x00, 5, 0x08, 0, 0x11, 6, 0x12})
	f.Add([]byte{0, 0, 0x40, 7, 0, 3, 0x08, 7, 0, 5, 0x08, 0, 0x81, 2, 0x1a})
	f.Add([]byte{2, 0, 0x03, 0, 0x04, 0, 0x0b, 2, 0x1c, 5, 0x1c, 6, 0x14, 3, 0x03})
	f.Add([]byte{3, 0, 0x00, 0, 0x09, 0, 0x12, 3, 0x00, 0, 0x1b, 0, 0x24, 4, 0x09, 3, 0x12})
	keys := [8]Key{}
	for i := range keys {
		keys[i] = key(fmt.Sprint("k", i))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%4)
		c := New(Config{Capacity: capacity})
		r := &refCache{entries: map[Key]*refEntry{}, aliases: map[Key]Key{}}
		var inserts, removals int64
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			content, raw, ttl := keys[arg%5], keys[3+(arg>>3)%5], int(arg>>6)
			step := fmt.Sprintf("op %d (%d, %#x)", i/2, op, arg)
			switch op {
			case 0, 1: // Insert
				body := fmt.Sprint("body ", i)
				delete(r.aliases, content) // a briefing's own key wins
				fresh := r.entries[content] == nil
				evicts := fresh && len(r.entries) == capacity
				c.Insert(content, raw, []byte(body), time.Duration(ttl)*tick)
				if evicts {
					held, _ := peek(c)
					var gone []Key
					for k := range r.entries {
						if _, ok := held[k]; !ok {
							gone = append(gone, k)
						}
					}
					if len(gone) != 1 {
						t.Fatalf("%s: a full insert removed %d briefings, want 1", step, len(gone))
					}
					r.drop(gone[0])
				}
				if fresh {
					inserts++
				}
				e := &refEntry{body: body}
				if ttl > 0 {
					e.exp = r.now + ttl
				}
				r.entries[content] = e
				r.alias(raw, content)
			case 2: // Alias
				if r.touch(content) {
					removals++
				}
				if _, ok := r.entries[content]; ok {
					r.alias(raw, content)
				}
				c.Alias(raw, content)
			case 3, 4, 5, 6: // Lookup, LookupRaw
				k, lookup := content, c.Lookup
				if op >= 5 {
					k, lookup = raw, c.LookupRaw
				}
				if r.touch(k) {
					removals++
				}
				want, wantOK := "", false
				if owner, ok := r.owner(k); ok && (owner == k) == (op < 5) {
					want, wantOK = r.entries[owner].body, true
				}
				got, ok := lookup(k)
				if ok != wantOK || string(got) != want {
					t.Fatalf("%s: lookup = %q, %v; want %q, %v", step, got, ok, want, wantOK)
				}
			case 7:
				r.now++
				advance(c, tick)
			}

			bodies, aliases := peek(c)
			if len(bodies) != len(r.entries) || len(aliases) != len(r.aliases) {
				t.Fatalf("%s: cache holds %d briefings and %d aliases, reference %d and %d",
					step, len(bodies), len(aliases), len(r.entries), len(r.aliases))
			}
			for k, e := range r.entries {
				if bodies[k] != e.body {
					t.Fatalf("%s: briefing holds %q, want %q", step, bodies[k], e.body)
				}
			}
			for raw, to := range r.aliases {
				if aliases[raw] != to {
					t.Fatalf("%s: alias resolves to the wrong briefing", step)
				}
			}
			if n := int64(c.Len()); c.Evictions() != inserts-removals-n {
				t.Fatalf("%s: evictions %d, want inserts %d − removals %d − Len %d",
					step, c.Evictions(), inserts, removals, n)
			}
			checkStructure(t, c, capacity)
		}
	})
}
