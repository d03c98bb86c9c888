package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// discardWriter is a reusable http.ResponseWriter, so the gates below count
// the gateway's allocations and not a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// relayFixture is one gateway over one httptest backend answering every
// /brief with a fixed briefing-sized reply, plus a reusable inbound request
// posting an 850-byte page (the benchmark's median page).
type relayFixture struct {
	g    *Gateway
	req  *http.Request
	body *bytes.Reader
	page []byte
	w    *discardWriter
}

func newRelayFixture(tb testing.TB) *relayFixture {
	tb.Helper()
	answer := []byte(`{"Topic":"job recruitment website","Attributes":[{"Name":"title","Value":"engineer"}]}` + "\n")
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(answer)
	}))
	tb.Cleanup(backend.Close)
	g, err := New(Config{Backends: []string{backend.Listener.Addr().String()}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { beginShutdown(tb, g) })

	f := &relayFixture{g: g, page: []byte(strings.Repeat("<p>briefing page text</p>\n", 34)[:850])}
	f.body = bytes.NewReader(f.page)
	f.req = httptest.NewRequest(http.MethodPost, "/brief?src=https://s1.books.example/p", f.body)
	f.req.Header.Set("Content-Type", "text/html")
	f.w = &discardWriter{header: http.Header{}}
	return f
}

// relay sends the fixture's page through the gateway handler once.
func (f *relayFixture) relay(tb testing.TB) {
	f.body.Reset(f.page)
	f.w.status = 0
	f.g.ServeHTTP(f.w, f.req)
	if f.w.status != http.StatusOK {
		tb.Fatalf("relay answered %d, want 200", f.w.status)
	}
}

// TestRelayAllocs pins the allocations of one steady-state relay: the
// gateway handler, the upstream exchange on a reused connection, and the
// httptest backend's net/http server answering it (same process, so it is
// counted too, identically on both sides of the comparison). Measured 46
// with the upstream (48 under -race); the parent's http.Client relay
// measured 98 in the same fixture — a Request, a URL parse, a cancel
// context and the persistConn channel hand-offs per relay.
func TestRelayAllocs(t *testing.T) {
	f := newRelayFixture(t)
	for i := 0; i < 5; i++ { // dial, grow the head buffer
		f.relay(t)
	}
	allocs := testing.AllocsPerRun(200, func() { f.relay(t) })
	t.Logf("one relay: %.1f allocs", allocs)
	if allocs > 50 {
		t.Fatalf("one warm relay allocates %.1f, want <= 50", allocs)
	}
	if b := f.g.snapshot().Backends[0]; b.UpstreamDials != 1 || b.UpstreamStaleReplays != 0 {
		t.Fatalf("steady state dialed %d times with %d stale replays, want 1 and 0", b.UpstreamDials, b.UpstreamStaleReplays)
	}
}

// BenchmarkRelay times the same relay; -cpuprofile on it is the gateway's
// share of a fleet-hit request.
func BenchmarkRelay(b *testing.B) {
	f := newRelayFixture(b)
	f.relay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.relay(b)
	}
}
