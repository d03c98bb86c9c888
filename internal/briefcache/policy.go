package briefcache

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Policy decides, per page domain, whether a briefing may enter the cache
// and how long it stays fresh. It is compiled from ordered rule lines:
// deny rules win over everything, then TTL classes match in declaration
// order (first match wins), then the default TTL applies. Domains are
// matched with suffix semantics (see suffixMatcher), so one rule covers a site
// and all its subdomains.
//
// The zero-value / nil Policy admits every domain at the cache's default
// TTL.
type Policy struct {
	deny    suffixMatcher
	classes []ttlClass
	// DefaultTTL overrides the cache-level default for domains no TTL
	// class covers (0 = defer to the cache's default).
	DefaultTTL time.Duration
}

// ttlClass is one "ttl <duration> <domains...>" rule group.
type ttlClass struct {
	m   suffixMatcher
	ttl time.Duration
}

// newPolicy compiles a policy from explicit rule sets: denied domains, TTL
// classes in priority order, and the default TTL.
func newPolicy(deny []string, classes []TTLRule, defaultTTL time.Duration) *Policy {
	p := &Policy{DefaultTTL: defaultTTL}
	if len(deny) > 0 {
		p.deny = newSuffixMatcher(deny)
	}
	for _, c := range classes {
		if len(c.Domains) == 0 {
			continue
		}
		p.classes = append(p.classes, ttlClass{m: newSuffixMatcher(c.Domains), ttl: c.TTL})
	}
	return p
}

// TTLRule is one TTL class for newPolicy: these domains (and their
// subdomains) cache for TTL.
type TTLRule struct {
	TTL     time.Duration
	Domains []string
}

// Admit reports whether pages from domain may be cached. The empty domain
// (no source attribution on the request) is always admitted — it can only
// be governed by the default TTL.
func (p *Policy) Admit(domain string) bool {
	if p == nil || p.deny == nil || domain == "" {
		return true
	}
	return !p.deny.Match(normalizeDomain(domain))
}

// TTL returns the freshness lifetime for pages from domain; 0 means "use
// the cache's default TTL".
func (p *Policy) TTL(domain string) time.Duration {
	if p == nil {
		return 0
	}
	if domain != "" {
		d := normalizeDomain(domain)
		for _, c := range p.classes {
			if c.m.Match(d) {
				return c.ttl
			}
		}
	}
	return p.DefaultTTL
}

// ParsePolicy reads the domain-policy file format, one rule per line:
//
//	# comments and blank lines are ignored
//	deny tracker.example.com ads.example.net
//	ttl 30s news.example.com live.example.org
//	ttl 1h docs.example.com
//	default 5m
//
// deny lines merge into one deny set; each ttl line opens its own class,
// matched in file order; default sets the TTL for uncovered domains.
func ParsePolicy(r io.Reader) (*Policy, error) {
	var deny []string
	var classes []TTLRule
	var defaultTTL time.Duration
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "deny":
			if len(fields) < 2 {
				return nil, fmt.Errorf("briefcache: policy line %d: deny needs at least one domain", line)
			}
			deny = append(deny, fields[1:]...)
		case "ttl":
			if len(fields) < 3 {
				return nil, fmt.Errorf("briefcache: policy line %d: ttl needs a duration and at least one domain", line)
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, fmt.Errorf("briefcache: policy line %d: %v", line, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("briefcache: policy line %d: ttl must be positive", line)
			}
			classes = append(classes, TTLRule{TTL: d, Domains: fields[2:]})
		case "default":
			if len(fields) != 2 {
				return nil, fmt.Errorf("briefcache: policy line %d: default needs exactly one duration", line)
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, fmt.Errorf("briefcache: policy line %d: %v", line, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("briefcache: policy line %d: default ttl must be positive", line)
			}
			defaultTTL = d
		default:
			return nil, fmt.Errorf("briefcache: policy line %d: unknown rule %q (want deny, ttl or default)", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("briefcache: read policy: %w", err)
	}
	return newPolicy(deny, classes, defaultTTL), nil
}

// LoadPolicy reads a policy file from disk.
func LoadPolicy(path string) (*Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("briefcache: open policy: %w", err)
	}
	defer f.Close()
	return ParsePolicy(f)
}
