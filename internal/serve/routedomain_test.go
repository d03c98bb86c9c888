package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/gateway"
	"webbrief/internal/httpwire/httpwiretest"
)

// FuzzRouteDomain holds the gateway's routing and the backend's cache keying
// to one reading of ?src=. The gateway sends an attributed request to the
// backend that owns gateway.RouteKey's domain; that backend keys its cache
// policy on cacheDomain of the request as it arrives, which is the head the
// gateway relays, parsed by httpwire. For every raw query both must name the
// same domain, or the gateway would concentrate a domain on one backend
// while that backend's policy classified it as another. The fuzz drives the
// real relay: a gateway in front of one httpwire backend whose handler
// records cacheDomain. A query the backend never sees must have been refused
// with a 400, by the gateway as unsafe to relay or by the backend's parse.
func FuzzRouteDomain(f *testing.F) {
	for _, q := range []string{
		"",
		"src=https://books.example/p",
		"src=Books.Example:8080",
		"src=http://[::1]:80/x",
		"a=1&src=news.example&src=other.example",
		"src=%zz&src=b.example",
		"src=a.example;x=1",
		"src=a.example#frag",
		"src=a.example%23frag",
		"src=%E2%82%AC.example",
		"src=a+b.example",
		"SRC=upper.example",
		"src",
		"src=",
		"&&src=x.example&",
		"src=a%0d%0aX-Evil:%201",
		"src=a b",
	} {
		f.Add(q)
	}
	var (
		mu   sync.Mutex
		seen []string // cacheDomain of each request the backend answered
	)
	backend := httpwiretest.NewFront(f, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, cacheDomain(r))
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	g, err := gateway.New(gateway.Config{
		Backends: []string{strings.TrimPrefix(backend.URL, "http://")},
		Timeout:  5 * time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(g.BeginShutdown)
	const page = "<p>x</p>"
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodPost, "/brief", strings.NewReader(page))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		mu.Lock()
		seen = seen[:0]
		mu.Unlock()
		g.ServeHTTP(rec, req)
		route := ""
		if d, ok := strings.CutPrefix(gateway.RouteKey(query, briefcache.SrcParam(query), []byte(page)), "domain:"); ok {
			route = d
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) == 0 && rec.Code != http.StatusBadRequest {
			t.Fatalf("query %q: no briefing reached the backend, and the gateway answered %d %q, want a 400",
				query, rec.Code, rec.Body.String())
		}
		for _, cached := range seen {
			if cached != route {
				t.Fatalf("query %q: the gateway routes by domain %q, the backend keys its cache on %q", query, route, cached)
			}
		}
	})
}
