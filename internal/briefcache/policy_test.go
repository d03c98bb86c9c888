package briefcache

import (
	"fmt"
	"net/url"
	"strings"
	"testing"
	"time"
)

// testPolicy is a policy file using every rule kind.
const testPolicy = `
# test policy
deny tracker.example.com ads.example.net

ttl 30s news.example.com live.example.org
ttl 1h  news.example.com docs.example.com
default 5m
`

// badPolicies are files ParsePolicy must refuse, one malformed line each.
var badPolicies = []string{
	"deny",
	"ttl 30s",
	"ttl notaduration example.com",
	"ttl -5s example.com",
	"default",
	"default 1h 2h",
	"default nope",
	"cache example.com",
}

// TestParsePolicy: the file format round-trips into the expected
// admission and TTL decisions, first-matching-class-wins.
func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy(strings.NewReader(testPolicy))
	if err != nil {
		t.Fatal(err)
	}

	admit := []struct {
		domain string
		want   bool
	}{
		{"example.com", true},
		{"tracker.example.com", false},
		{"pix.tracker.example.com", false},
		{"ads.example.net", false},
		{"news.example.com", true},
		{"", true}, // unattributed requests are admitted
	}
	for _, tc := range admit {
		if got := p.Admit(tc.domain); got != tc.want {
			t.Errorf("Admit(%q) = %v, want %v", tc.domain, got, tc.want)
		}
	}

	ttl := []struct {
		domain string
		want   time.Duration
	}{
		{"news.example.com", 30 * time.Second}, // first class wins
		{"live.example.org", 30 * time.Second},
		{"docs.example.com", time.Hour},
		{"other.example.com", 5 * time.Minute}, // default
		{"", 5 * time.Minute},
	}
	for _, tc := range ttl {
		if got := p.TTL(tc.domain); got != tc.want {
			t.Errorf("TTL(%q) = %v, want %v", tc.domain, got, tc.want)
		}
	}
}

// TestParsePolicyErrors: malformed lines fail with the line number.
func TestParsePolicyErrors(t *testing.T) {
	for _, line := range badPolicies {
		if _, err := ParsePolicy(strings.NewReader(line)); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", line)
		}
	}
}

// FuzzParsePolicy: no file makes ParsePolicy panic, and a policy it accepts
// answers Admit and TTL for any domain — the fuzzed one, and every word of
// the file, so the rules' own domains and their subdomains are probed too —
// without panicking, with a TTL that is positive or the policy's default.
func FuzzParsePolicy(f *testing.F) {
	f.Add(testPolicy, "pix.tracker.example.com")
	f.Add(testPolicy, "")
	for _, bad := range badPolicies {
		f.Add(bad, "example.com")
	}
	f.Add("ttl 1ns A.Example.COM.\ndeny \xff\x00 .", " Sub.A.example.com. ")
	f.Add("default 9223372036854775807ns\nttl 1h "+strings.Repeat("d.", 40)+"x", "İ.example")
	// Larger rule sets: a deny list of 10 rules, a TTL class of 70.
	var many []string
	for i := 0; i < 70; i++ {
		many = append(many, fmt.Sprintf("h%d.example", i))
	}
	f.Add("deny "+strings.Join(many[:10], " ")+"\nttl 2s "+strings.Join(many, " "), "a.h42.example")
	f.Fuzz(func(t *testing.T, file, domain string) {
		p, err := ParsePolicy(strings.NewReader(file))
		if err != nil {
			return
		}
		if p.DefaultTTL < 0 {
			t.Fatalf("accepted a negative default TTL %v", p.DefaultTTL)
		}
		for _, d := range append(strings.Fields(file), domain, "x."+domain) {
			p.Admit(d)
			if ttl := p.TTL(d); ttl <= 0 && ttl != p.DefaultTTL {
				t.Fatalf("TTL(%q) = %v: neither positive nor the default %v", d, ttl, p.DefaultTTL)
			}
		}
	})
}

// TestNilPolicy: the nil policy admits everything and defers TTL.
func TestNilPolicy(t *testing.T) {
	var p *Policy
	if !p.Admit("anything.example.com") {
		t.Error("nil policy must admit")
	}
	if p.TTL("anything.example.com") != 0 {
		t.Error("nil policy must defer TTL")
	}
}

// FuzzSrcParam: SrcParam reads ?src= exactly as url.ParseQuery does, so
// gateway routing and backend cache keying see the same value.
func FuzzSrcParam(f *testing.F) {
	for _, q := range []string{
		"", "src=books.example", "x=1&src=https%3A%2F%2Fa.example%2Fp&src=second",
		"s%72c=escaped-key", "src=%zz&src=ok", "src=a;b&src=c", "src=a+b", "&&src=&", "src", "=src",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		vals, _ := url.ParseQuery(q)
		if got, want := SrcParam(q), vals.Get("src"); got != want {
			t.Fatalf("SrcParam(%q) = %q, url.ParseQuery says %q", q, got, want)
		}
	})
}
