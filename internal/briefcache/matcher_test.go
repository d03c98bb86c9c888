package briefcache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// matcherRules is the shared rule set the matcher and its oracle are built from. It
// mixes plain registrable domains, deep subdomains, a bare TLD, a
// single-label intranet name, a unicode (IDN) domain and rules that need
// normalisation (case, trailing dot, whitespace).
var matcherRules = []string{
	"example.com",
	"news.example.org",
	"deep.sub.example.net",
	"dev", // bare TLD-style rule: covers everything under .dev
	"localhost",
	"bücher.de",        // unicode labels match verbatim after folding
	"MiXeD.CaSe.IO",    // folds to mixed.case.io
	"trailing.dot.fr.", // root-label dot stripped
	"  spaced.out.gr ", // surrounding whitespace stripped
}

// matcherCases is the shared truth table. Queries are fed through
// normalizeDomain exactly as the policy layer does.
var matcherCases = []struct {
	domain string
	want   bool
}{
	// Exact matches and subdomain coverage.
	{"example.com", true},
	{"www.example.com", true},
	{"a.b.c.example.com", true},
	{"example.org", false}, // only news.example.org is a rule
	{"news.example.org", true},
	{"live.news.example.org", true},
	{"olds.example.org", false},
	{"deep.sub.example.net", true},
	{"x.deep.sub.example.net", true},
	{"sub.example.net", false}, // rule is deeper than the query
	{"example.net", false},

	// Suffixes must respect label boundaries.
	{"notexample.com", false},
	{"badexample.com", false},
	{"xexample.com", false},

	// Bare TLD rule covers the TLD itself and everything under it.
	{"dev", true},
	{"app.dev", true},
	{"a.b.dev", true},
	{"devx", false},
	{"dev.io", false},

	// Single-label intranet name: itself only, no lookalikes.
	{"localhost", true},
	{"db.localhost", true},
	{"localhost.example.net", false},

	// Unicode domains, with and without case folds.
	{"bücher.de", true},
	{"shop.bücher.de", true},
	{"BÜCHER.de", true}, // ToLower folds the umlaut
	{"bucher.de", false},

	// Case folding of ASCII rules and queries.
	{"mixed.case.io", true},
	{"MIXED.CASE.IO", true},
	{"api.MiXeD.case.IO", true},
	{"case.io", false},

	// Trailing dots and whitespace on the query side.
	{"trailing.dot.fr", true},
	{"trailing.dot.fr.", true},
	{"www.trailing.dot.fr.", true},
	{"dot.fr", false},
	{" spaced.out.gr", true},
	{"cdn.spaced.out.gr", true},

	// Degenerate queries.
	{"", false},
	{".", false},
	{"com", false}, // "com" is not a rule; example.com does not imply it
}

// linearMatcher is the oracle: it scans every rule per query and tests the
// definition of suffix coverage directly — the rule itself, or the rule
// behind a dot — with no probing to get wrong.
type linearMatcher []string

func newLinearMatcher(rules []string) linearMatcher {
	var m linearMatcher
	for _, r := range rules {
		if r = normalizeDomain(r); r != "" {
			m = append(m, r)
		}
	}
	return m
}

func (m linearMatcher) Match(d string) bool {
	for _, r := range m {
		if d == r || strings.HasSuffix(d, "."+r) {
			return true
		}
	}
	return false
}

// buildVariants builds the matcher and its oracle over one rule set.
func buildVariants(rules []string) map[string]interface{ Match(string) bool } {
	return map[string]interface{ Match(string) bool }{
		"linear": newLinearMatcher(rules),
		"map":    newSuffixMatcher(rules),
	}
}

// TestSuffixMatcherVariantsAgree runs the shared truth table through the
// matcher and its oracle: same rules, same queries, same verdicts.
func TestSuffixMatcherVariantsAgree(t *testing.T) {
	for name, m := range buildVariants(matcherRules) {
		t.Run(name, func(t *testing.T) {
			for _, tc := range matcherCases {
				if got := m.Match(normalizeDomain(tc.domain)); got != tc.want {
					t.Errorf("%s.Match(%q) = %v, want %v", name, tc.domain, got, tc.want)
				}
			}
		})
	}
}

// TestSuffixMatcherRandomEquivalence cross-checks the matcher against the
// oracle on seeded random rule sets and queries.
func TestSuffixMatcherRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "bb", "ccc", "example", "news", "shop", "x", "bücher", "dev"}
	randomDomain := func(maxLabels int) string {
		n := 1 + rng.Intn(maxLabels)
		d := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				d += "."
			}
			d += labels[rng.Intn(len(labels))]
		}
		return d
	}
	for trial := 0; trial < 50; trial++ {
		rules := make([]string, 1+rng.Intn(20))
		for i := range rules {
			rules[i] = randomDomain(3)
		}
		oracle, m := newLinearMatcher(rules), newSuffixMatcher(rules)
		for q := 0; q < 100; q++ {
			d := normalizeDomain(randomDomain(4))
			if want, got := oracle.Match(d), m.Match(d); got != want {
				t.Fatalf("trial %d: Match(%q) over %v = %v, the oracle says %v", trial, d, rules, got, want)
			}
		}
	}
}

// TestNewSuffixMatcherRules: every rule is held once, normalised, at every
// size, and empty rules are dropped.
func TestNewSuffixMatcherRules(t *testing.T) {
	for _, n := range []int{1, 8, 9, 64, 65, 500} {
		rules := make([]string, n)
		for i := range rules {
			rules[i] = fmt.Sprintf("site%03d.example.com", i)
		}
		m := newSuffixMatcher(rules)
		if len(m) != n {
			t.Errorf("newSuffixMatcher(%d rules) holds %d", n, len(m))
		}
		for _, r := range rules {
			if !m.Match("cdn." + r) {
				t.Errorf("newSuffixMatcher(%d rules) misses a subdomain of %s", n, r)
			}
		}
	}

	m := newSuffixMatcher([]string{"A.com", "a.com", "a.com.", " a.com ", ""})
	if len(m) != 1 {
		t.Errorf("dedup: %d rules, want 1", len(m))
	}
	if !m.Match("sub.a.com") {
		t.Error("deduped matcher should still match")
	}
}

// TestNormalizeDomain pins the canonical form lookups and rules share.
func TestNormalizeDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM", "example.com"},
		{"example.com.", "example.com"},
		{"  example.com \t", "example.com"},
		{"BÜCHER.DE", "bücher.de"},
		{"already.lower.dev", "already.lower.dev"},
		{".", ""},
		{"", ""},
	}
	for _, tc := range cases {
		if got := normalizeDomain(tc.in); got != tc.want {
			t.Errorf("normalizeDomain(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNormalizeDomainFastPathAllocs: the already-canonical common case must
// not allocate — it runs on every cache lookup.
func TestNormalizeDomainFastPathAllocs(t *testing.T) {
	d := "news.example.com"
	if n := testing.AllocsPerRun(100, func() {
		if normalizeDomain(d) != d {
			t.Fatal("normalization changed a canonical domain")
		}
	}); n != 0 {
		t.Errorf("normalizeDomain fast path allocates %.1f/op, want 0", n)
	}
}
