package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webbrief/internal/httpwire/httpwiretest"
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

// relayFixture is one gateway over one backend served on httpwire, as
// wbserve is, answering every /brief with a fixed briefing-sized reply, plus
// a reusable inbound request posting an 850-byte page (the benchmark's
// median page). A timed fixture's backend also sends serverTiming.
type relayFixture struct {
	g    *Gateway
	req  *http.Request
	body *bytes.Reader
	page []byte
	w    *discardWriter
}

// jsonType is assigned, not Set, so the backend's handler allocates nothing.
var jsonType = []string{"application/json"}

// serverTiming is an eight-stage Server-Timing field, the shape a backend's
// latency partition takes on the wire. It is built once, so the backend
// sends it without allocating and a timed relay's count is the gateway's.
var serverTiming = []string{"read;dur=0.004, cache;dur=0.002, queue_wait;dur=0.001, parse;dur=0.061, " +
	"encode;dur=0.412, decode;dur=1.208, reply;dur=0.006, log;dur=0.003"}

func newRelayFixture(tb testing.TB, timed bool) *relayFixture {
	tb.Helper()
	answer := []byte(`{"Topic":"job recruitment website","Attributes":[{"Name":"title","Value":"engineer"}]}` + "\n")
	backend := httpwiretest.NewFront(tb, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header()["Content-Type"] = jsonType
		if timed {
			w.Header()["Server-Timing"] = serverTiming
		}
		w.Write(answer)
	}))
	g, err := New(Config{Backends: []string{strings.TrimPrefix(backend.URL, "http://")}})
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
// backend's httpwire server answering it (same process, so it is counted
// too, identically in every row). Measured 10, also under -race. The
// gateway's own are 6: the minted request ID, the request body, its two
// header Sets (X-Request-Id and Content-Type), and the reply's Content-Type
// and body. The backend's are httpwire's 4 per request (TestServerAllocs):
// the head's string, the request and the header map's two. Before the
// backend moved from httptest's net/http server to httpwire, the same relay
// counted 33 (35 under -race), 27 of them net/http's. The timed row must
// count what the plain one counts: httpwire.ReadReply skips a field it does
// not forward without allocating, so a backend may send Server-Timing for
// free.
func TestRelayAllocs(t *testing.T) {
	counts := map[bool]float64{}
	for _, timed := range []bool{false, true} {
		f := newRelayFixture(t, timed)
		for i := 0; i < 5; i++ { // dial, grow the head buffer
			f.relay(t)
		}
		allocs := testing.AllocsPerRun(200, func() { f.relay(t) })
		t.Logf("one relay (Server-Timing %v): %.1f allocs", timed, allocs)
		if allocs > 10 {
			t.Fatalf("one warm relay (Server-Timing %v) allocates %.1f, want <= 10", timed, allocs)
		}
		if b := f.g.snapshot().Backends[0]; b.UpstreamDials != 1 || b.UpstreamStaleReplays != 0 {
			t.Fatalf("steady state dialed %d times with %d stale replays, want 1 and 0", b.UpstreamDials, b.UpstreamStaleReplays)
		}
		counts[timed] = allocs
	}
	if counts[true] != counts[false] {
		t.Fatalf("a reply with Server-Timing costs %.1f allocs, a plain one %.1f: the reply reader keeps a field it does not forward",
			counts[true], counts[false])
	}
}

// TestRelayConnOps pins what one warm relay costs the gateway in calls on
// its upstream connection, counted by wrapping the idle connection (its
// net.Conn and the bufio.Reader over it) after warm-up: two writes (the
// wrapper hides writev, so the head and the page go out one Write each),
// one read (the whole reply arrives in one segment and is read out of the
// buffer) and three deadline sets (the exchange's deadline, the reply
// grace, and the deadline again once the first byte is in). A reply reader
// that peeked past what the buffer holds would add a read(2) per relay
// that TestRelayAllocs does not see.
func TestRelayConnOps(t *testing.T) {
	f := newRelayFixture(t, false)
	for i := 0; i < 5; i++ {
		f.relay(t)
	}
	var cc *httpwiretest.CountingConn
	for _, b := range f.g.backends {
		b.up.mu.Lock()
		if len(b.up.idle) != 1 {
			b.up.mu.Unlock()
			t.Fatalf("%d idle upstream connections after warm-up, want 1", len(b.up.idle))
		}
		uc := b.up.idle[0]
		cc = &httpwiretest.CountingConn{Conn: uc.c}
		uc.c = cc
		uc.br.Reset(cc)
		b.up.mu.Unlock()
	}
	const n = 200
	for i := 0; i < n; i++ {
		f.relay(t)
	}
	got := cc.Ops().PerOp(httpwiretest.ConnOps{}, n)
	t.Logf("per warm relay: %+v", got)
	if want := (httpwiretest.ConnOps{Reads: 1, Writes: 2, Deadlines: 3}); got != want {
		t.Fatalf("one warm relay makes %+v calls on its upstream connection, want %+v", got, want)
	}
	if b := f.g.snapshot().Backends[0]; b.UpstreamDials != 1 {
		t.Fatalf("the relays dialed %d times, want 1: the counted connection was dropped", b.UpstreamDials)
	}
}

// BenchmarkRelay times the same relay: the gateway handler called in
// process (validation, routing, the upstream exchange and the reply read)
// plus the in-process httpwire backend. It does not cover what wbgate does
// around the handler — httpwire's inbound head parse, the response send and
// the disconnect watch — so its profile is not wbgate's under fleet-hit.
func BenchmarkRelay(b *testing.B) {
	f := newRelayFixture(b, false)
	f.relay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.relay(b)
	}
}
