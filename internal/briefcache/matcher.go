// Package briefcache is the content-addressed briefing cache behind the
// serving tier's hot path. Real briefing traffic is dominated by
// re-requests of the same popular pages (the WebBrain product shape:
// briefings grounded on a large crawled corpus), so the cheapest "student"
// of all is a cache hit — a briefing the model already computed.
//
// The cache is addressed two ways:
//
//   - content key: SHA-256 of the page's rendered visible text, so two
//     HTML bodies that differ only in markup (attribute order, whitespace,
//     tracking params in URLs) share one cached briefing;
//   - raw alias: SHA-256 of the raw request bytes, recorded inside the
//     briefing's entry (one per briefing, the latest wins) so a
//     byte-identical re-request skips the DOM parse entirely — the
//     microsecond repeat-hit path.
//
// Storage is one map and one insertion-ordered list under one mutex, with
// per-entry TTLs and SIEVE eviction (see Cache); admission and TTL are
// decided per page domain by a Policy over a domain-suffix Matcher.
// Concurrent misses on one cold content key coalesce through a Flight so a
// thundering herd computes the briefing exactly once.
package briefcache

import (
	"sort"
	"strings"
)

// Matcher reports whether a domain is covered by a set of domain suffixes.
// A rule "example.com" covers "example.com" itself and every subdomain
// ("a.example.com", "b.a.example.com"); it never covers "notexample.com".
// Inputs are expected in normalizeDomain form.
type Matcher interface {
	Match(domain string) bool
	// Len is the number of rules the matcher was built from.
	Len() int
}

// normalizeDomain canonicalises a domain for matching: surrounding
// whitespace and the root-label trailing dot are stripped, and the name is
// case-folded. Unicode labels are folded too — the synthetic corpus and
// tests use raw IDN labels rather than punycode, and ToLower is the right
// fold for both.
func normalizeDomain(d string) string {
	d = strings.TrimSpace(d)
	d = strings.TrimSuffix(d, ".")
	// Fast path: already lower-case ASCII (the common case) — avoid the
	// ToLower allocation on every cache lookup.
	lower := true
	for i := 0; i < len(d); i++ {
		c := d[i]
		if c >= 'A' && c <= 'Z' || c >= 0x80 {
			lower = false
			break
		}
	}
	if lower {
		return d
	}
	return strings.ToLower(d)
}

// Size thresholds for newSuffixMatcher's variant selection, justified by
// BenchmarkSuffixMatcher: linear scan wins while the whole rule set fits in
// a cache line or two (no per-label candidate loop, no hashing), binary
// search wins in the mid range (log n string compares beat per-candidate
// map hashing), and the map amortises best once rule sets grow past a few
// dozen entries.
const (
	linearMaxRules = 8
	binaryMaxRules = 64
)

// newSuffixMatcher builds the matcher variant suited to the rule set size:
// a linear scan for tiny sets, sorted binary search for mid-size sets, a
// hash map for large ones. Rules are normalised and deduplicated; empty
// rules are dropped.
func newSuffixMatcher(rules []string) Matcher {
	norm := make([]string, 0, len(rules))
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		r = normalizeDomain(r)
		if r == "" || seen[r] {
			continue
		}
		seen[r] = true
		norm = append(norm, r)
	}
	sort.Strings(norm)
	switch {
	case len(norm) <= linearMaxRules:
		return newLinearMatcher(norm)
	case len(norm) <= binaryMaxRules:
		return binarySearchMatcher(norm)
	default:
		m := make(mapMatcher, len(norm))
		for _, r := range norm {
			m[r] = true
		}
		return m
	}
}

// linearMatcher scans every rule per query. Each rule is stored with its
// dot-prefixed form precomputed so Match allocates nothing.
type linearMatcher struct {
	rules  []string // exact forms
	dotted []string // "." + rule, for the subdomain suffix test
}

func newLinearMatcher(rules []string) *linearMatcher {
	m := &linearMatcher{rules: rules, dotted: make([]string, len(rules))}
	for i, r := range rules {
		m.dotted[i] = "." + r
	}
	return m
}

// Match implements Matcher.
func (m *linearMatcher) Match(d string) bool {
	for i, r := range m.rules {
		if d == r || strings.HasSuffix(d, m.dotted[i]) {
			return true
		}
	}
	return false
}

// Len implements Matcher.
func (m *linearMatcher) Len() int { return len(m.rules) }

// binarySearchMatcher holds the sorted rule set and binary-searches each
// dot-delimited suffix of the query: "a.b.example.com" probes itself, then
// "b.example.com", "example.com", "com".
type binarySearchMatcher []string

// Match implements Matcher.
func (m binarySearchMatcher) Match(d string) bool {
	for s := d; s != ""; {
		i := sort.SearchStrings(m, s)
		if i < len(m) && m[i] == s {
			return true
		}
		dot := strings.IndexByte(s, '.')
		if dot < 0 {
			return false
		}
		s = s[dot+1:]
	}
	return false
}

// Len implements Matcher.
func (m binarySearchMatcher) Len() int { return len(m) }

// mapMatcher probes each dot-delimited suffix of the query in a hash set.
type mapMatcher map[string]bool

// Match implements Matcher.
func (m mapMatcher) Match(d string) bool {
	for s := d; s != ""; {
		if m[s] {
			return true
		}
		dot := strings.IndexByte(s, '.')
		if dot < 0 {
			return false
		}
		s = s[dot+1:]
	}
	return false
}

// Len implements Matcher.
func (m mapMatcher) Len() int { return len(m) }
