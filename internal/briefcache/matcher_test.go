package briefcache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// matcherRules is the shared rule set every variant is built from. It
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

// buildVariants constructs all three matcher implementations over one rule
// set, bypassing newSuffixMatcher's size selection so each variant is
// exercised at every size.
func buildVariants(rules []string) map[string]Matcher {
	norm := make([]string, 0, len(rules))
	seen := map[string]bool{}
	for _, r := range rules {
		r = normalizeDomain(r)
		if r == "" || seen[r] {
			continue
		}
		seen[r] = true
		norm = append(norm, r)
	}
	sort.Strings(norm)
	mm := make(mapMatcher, len(norm))
	for _, r := range norm {
		mm[r] = true
	}
	return map[string]Matcher{
		"linear": newLinearMatcher(norm),
		"binary": binarySearchMatcher(norm),
		"map":    mm,
	}
}

// TestSuffixMatcherVariantsAgree runs the shared truth table through all
// three variants: same rules, same queries, same verdicts.
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

// TestSuffixMatcherRandomEquivalence cross-checks the variants on seeded
// random rule sets and queries: whatever one says, all say.
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
		variants := buildVariants(rules)
		for q := 0; q < 100; q++ {
			d := normalizeDomain(randomDomain(4))
			got := map[string]bool{}
			for name, m := range variants {
				got[name] = m.Match(d)
			}
			if got["linear"] != got["binary"] || got["binary"] != got["map"] {
				t.Fatalf("trial %d: variants disagree on %q over %v: %v", trial, d, rules, got)
			}
		}
	}
}

// TestNewSuffixMatcherSelectsBySize pins the size-based variant selection
// the benchmarks justify: linear for tiny sets, binary search mid-range,
// map beyond.
func TestNewSuffixMatcherSelectsBySize(t *testing.T) {
	mkRules := func(n int) []string {
		rules := make([]string, n)
		for i := range rules {
			rules[i] = fmt.Sprintf("site%03d.example.com", i)
		}
		return rules
	}
	cases := []struct {
		n    int
		want string
	}{
		{1, "*briefcache.linearMatcher"},
		{linearMaxRules, "*briefcache.linearMatcher"},
		{linearMaxRules + 1, "briefcache.binarySearchMatcher"},
		{binaryMaxRules, "briefcache.binarySearchMatcher"},
		{binaryMaxRules + 1, "briefcache.mapMatcher"},
		{500, "briefcache.mapMatcher"},
	}
	for _, tc := range cases {
		m := newSuffixMatcher(mkRules(tc.n))
		if got := fmt.Sprintf("%T", m); got != tc.want {
			t.Errorf("newSuffixMatcher(%d rules) = %s, want %s", tc.n, got, tc.want)
		}
		if m.Len() != tc.n {
			t.Errorf("newSuffixMatcher(%d rules).Len() = %d", tc.n, m.Len())
		}
	}

	// Dedup and normalisation happen before selection.
	m := newSuffixMatcher([]string{"A.com", "a.com", "a.com.", " a.com ", ""})
	if m.Len() != 1 {
		t.Errorf("dedup: Len() = %d, want 1", m.Len())
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
