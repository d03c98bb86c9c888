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
// decided per page domain by a Policy over domain-suffix matchers.
// Concurrent misses on one cold content key coalesce through a Flight so a
// thundering herd computes the briefing exactly once.
package briefcache

import "strings"

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

// suffixMatcher reports whether a domain is covered by a set of domain
// suffixes. A rule "example.com" covers "example.com" itself and every
// subdomain ("a.example.com", "b.a.example.com"); it never covers
// "notexample.com". It probes each dot-delimited suffix of the query in a
// hash set: "a.b.example.com" probes itself, then "b.example.com",
// "example.com", "com" — one probe per label whatever the number of rules.
// Queries are expected in normalizeDomain form.
type suffixMatcher map[string]bool

// newSuffixMatcher builds a matcher over rules, normalised; empty rules are
// dropped.
func newSuffixMatcher(rules []string) suffixMatcher {
	m := make(suffixMatcher, len(rules))
	for _, r := range rules {
		if r = normalizeDomain(r); r != "" {
			m[r] = true
		}
	}
	return m
}

// Match reports whether a rule covers d.
func (m suffixMatcher) Match(d string) bool {
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
