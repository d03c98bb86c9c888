package briefcache

import (
	"net/url"
	"strings"
)

// SrcParam is the ?src= parameter of a raw query string, read exactly as
// url.ParseQuery(rawQuery).Get("src") reads it — the first well-formed src
// pair, unescaped — without building the map: both tiers read it on every
// attributed request, a cache hit included.
func SrcParam(rawQuery string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue // ParseQuery skips empty and semicolon pairs
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != "src" {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// SrcDomain extracts the page's source domain from a ?src=-style value: a
// bare domain or a full URL. The scheme, path, query, fragment and port are
// stripped and the remainder is normalised with normalizeDomain. The empty
// string stays empty (an unattributed request).
//
// This is the shared extraction behind the cache's admission/TTL policy key
// (internal/serve) and the gateway's consistent-hash routing key
// (internal/gateway): both tiers must agree on what "the page's domain"
// means, or the gateway would route a domain to one backend while the
// backend's cache policy classifies it as another.
func SrcDomain(src string) string {
	if src == "" {
		return ""
	}
	if i := strings.Index(src, "://"); i >= 0 {
		src = src[i+3:]
	}
	if i := strings.IndexAny(src, "/?#"); i >= 0 {
		src = src[:i]
	}
	if i := strings.LastIndexByte(src, ':'); i >= 0 && !strings.Contains(src[i:], "]") {
		src = src[:i] // host:port (a colon inside [v6] brackets is not a port)
	}
	return normalizeDomain(src)
}
