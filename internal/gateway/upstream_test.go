package gateway

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wireRequest is one request as a wireBackend saw it: the raw bytes off the
// socket and what net/http's own parser made of them.
type wireRequest struct {
	raw  []byte
	req  *http.Request
	body []byte
}

// wireBackend is a backend that keeps the exact bytes the gateway's
// upstream put on the wire. It parses them with http.ReadRequest — the
// parser a real wbserve runs — and answers every request 200.
type wireBackend struct {
	ln   net.Listener
	seen chan wireRequest
}

func newWireBackend(t *testing.T) *wireBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wb := &wireBackend{ln: ln, seen: make(chan wireRequest, 1)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				wb.serve(c)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return wb
}

func (wb *wireBackend) serve(c net.Conn) {
	var raw bytes.Buffer
	br := bufio.NewReader(io.TeeReader(c, &raw))
	for {
		raw.Reset()
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return
		}
		// The tee runs ahead of the parser by whatever bufio buffered, but a
		// one-in-flight client has sent nothing past this request.
		wb.seen <- wireRequest{raw: append([]byte(nil), raw.Bytes()...), req: req, body: body}
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\r\n{}\n")
	}
}

// TestUpstreamRequestHeadMatchesInbound is the differential test for the
// hand-written request head, over query × content-type × body: whatever
// net/http's server parsed out of the client's request, the bytes the
// upstream writes must parse — with the same parser — back to the same
// method, request-target, Host, Content-Type, Content-Length and body, and
// the head must hold exactly the lines the upstream meant to write.
func TestUpstreamRequestHeadMatchesInbound(t *testing.T) {
	queries := []struct{ name, q string }{
		{"none", ""},
		{"src", "src=https://books.example/p"},
		{"multi-param", "src=news.example&utm_source=feed&x=1&x=2&empty="},
		{"escaped", "src=https%3A%2F%2Fshop.example%2Fa%20b%3Fq%3D%25&note=%0D%0AX-Injected%3A+1"},
		{"2KB", "src=big.example&pad=" + strings.Repeat("abcdefgh", 256)},
	}
	contentTypes := []struct{ name, ct string }{
		{"none", ""},
		{"html", "text/html"},
		{"params", `text/html; charset="utf-8"; boundary=a b`},
	}
	bodies := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"1B", []byte("x")},
		{"850B", bytes.Repeat([]byte("<p>page</p>\n"), 71)[:850]},
		{"5KB", bytes.Repeat([]byte("<div>long page</div>\r\n\r\n"), 210)},
	}

	wb := newWireBackend(t)
	g, err := New(Config{Backends: []string{wb.ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.BeginShutdown)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	for _, q := range queries {
		for _, ct := range contentTypes {
			for _, b := range bodies {
				t.Run(q.name+"/"+ct.name+"/"+b.name, func(t *testing.T) {
					target := "/brief"
					if q.q != "" {
						target += "?" + q.q
					}
					req, err := http.NewRequest(http.MethodPost, ts.URL+target, bytes.NewReader(b.body))
					if err != nil {
						t.Fatal(err)
					}
					if ct.ct != "" {
						req.Header.Set("Content-Type", ct.ct)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d", resp.StatusCode)
					}

					got := <-wb.seen
					if got.req.Method != http.MethodPost || got.req.RequestURI != target {
						t.Errorf("request line %s %q, want POST %q", got.req.Method, got.req.RequestURI, target)
					}
					if got.req.Host != wb.ln.Addr().String() {
						t.Errorf("Host %q, want %q", got.req.Host, wb.ln.Addr())
					}
					if v := got.req.Header.Get("Content-Type"); v != ct.ct {
						t.Errorf("Content-Type %q, want %q", v, ct.ct)
					}
					if got.req.ContentLength != int64(len(b.body)) || len(got.req.TransferEncoding) != 0 {
						t.Errorf("Content-Length %d (transfer-encoding %v), want %d", got.req.ContentLength, got.req.TransferEncoding, len(b.body))
					}
					if !bytes.Equal(got.body, b.body) {
						t.Errorf("body differs: %d bytes relayed, %d posted", len(got.body), len(b.body))
					}
					wantHeaders := 1 // Content-Length; Host is not in the map
					if ct.ct != "" {
						wantHeaders++
					}
					if len(got.req.Header) != wantHeaders {
						t.Errorf("relayed head carries %d header fields, want %d: %v", len(got.req.Header), wantHeaders, got.req.Header)
					}
					head, _, ok := bytes.Cut(got.raw, []byte("\r\n\r\n"))
					if !ok || bytes.Count(head, []byte("\r\n")) != wantHeaders+1 {
						t.Errorf("head is not request line + Host + %d fields:\n%q", wantHeaders, head)
					}
				})
			}
		}
	}
	if b := g.snapshot().Backends[0]; b.UpstreamDials != 1 || b.UpstreamStaleReplays != 0 {
		t.Errorf("%d requests dialed %d times with %d stale replays, want one connection throughout",
			b.Requests, b.UpstreamDials, b.UpstreamStaleReplays)
	}
}

// checkHeadIsolated asserts that a query and Content-Type the gateway's gate
// lets through come back out of the head as themselves and nothing else: no
// value can end its line and start another.
func checkHeadIsolated(t *testing.T, query, contentType string) {
	t.Helper()
	if !headSafe(query, false) || !headSafe(contentType, true) {
		return // handleBrief answers 400; nothing reaches a backend
	}
	const host, payload = "10.0.0.1:8080", "abc"
	head := appendRequestHead(nil, host, request{method: http.MethodPost, path: "/brief", query: query, contentType: contentType, body: []byte(payload)})
	wantLines := 4 // request line, Host, Content-Length, blank
	if contentType != "" {
		wantLines++
	}
	if n := bytes.Count(head, []byte("\r\n")); n != wantLines || bytes.Count(head, []byte("\n")) != n || bytes.Count(head, []byte("\r")) != n {
		t.Fatalf("query %q, Content-Type %q: head has %d CRLFs, want exactly %d:\n%q", query, contentType, n, wantLines, head)
	}
	req, err := http.ReadRequest(bufio.NewReader(io.MultiReader(bytes.NewReader(head), strings.NewReader(payload))))
	if err != nil {
		t.Fatalf("query %q, Content-Type %q: head does not parse: %v\n%q", query, contentType, err, head)
	}
	target := "/brief"
	if query != "" {
		target += "?" + query
	}
	if req.Method != http.MethodPost || req.RequestURI != target || req.Host != host || req.ContentLength != int64(len(payload)) {
		t.Fatalf("head parsed to %s %q Host %q length %d, want POST %q Host %q length %d",
			req.Method, req.RequestURI, req.Host, req.ContentLength, target, host, len(payload))
	}
	if got, want := req.Header.Get("Content-Type"), textproto.TrimString(contentType); got != want {
		t.Fatalf("Content-Type parsed to %q, want %q", got, want)
	}
	if len(req.Header) != wantLines-3 {
		t.Fatalf("query %q, Content-Type %q grew the head to %d fields: %v", query, contentType, len(req.Header), req.Header)
	}
}

// FuzzUpstreamRequestHead: no query or Content-Type can add a line to the
// outbound head — neither as net/http's server would hand them to the
// gateway after parsing an inbound request built around them, nor handed to
// it directly by an in-process driver.
func FuzzUpstreamRequestHead(f *testing.F) {
	f.Add("", "")
	f.Add("src=https://books.example/p", "text/html")
	f.Add("src=a%0d%0aX-Evil:%201", "text/html; charset=utf-8")
	f.Add("src=a\r\nX-Evil: 1", "text/html\r\nX-Evil: 1")
	f.Add("a b", "text/html\nX-Evil: 1")
	f.Add("x=\x00\x7f\t", "a\rb")
	f.Add("q=1 HTTP/1.1\r\nHost: evil\r\n\r\nGET /admin/reload", "\t text/html \t")
	f.Add("\xff\xfe#frag?x", "\xe9\x80")
	f.Fuzz(func(t *testing.T, query, contentType string) {
		checkHeadIsolated(t, query, contentType)

		inbound := "POST /brief?" + query + " HTTP/1.1\r\nHost: gw\r\nContent-Type: " + contentType + "\r\nContent-Length: 0\r\n\r\n"
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(inbound)))
		if err != nil {
			return // refused at the front door
		}
		checkHeadIsolated(t, req.URL.RawQuery, req.Header.Get("Content-Type"))
	})
}

// TestGatewayRefusesUnsafeHead: a query or Content-Type that would break
// the relayed head — only an in-process driver can deliver one — is a
// counted 400 and reaches no backend.
func TestGatewayRefusesUnsafeHead(t *testing.T) {
	g, _, backends := newTestGateway(t, 1, nil)
	for _, tc := range []struct{ name, query, ct string }{
		{"CRLF in query", "src=a\r\nX-Evil: 1", "text/html"},
		{"space in query", "src=a b", "text/html"},
		{"CRLF in Content-Type", "src=a", "text/html\r\nX-Evil: 1"},
		{"NUL in Content-Type", "", "text/\x00html"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/brief", strings.NewReader("<p>x</p>"))
		req.URL.RawQuery = tc.query
		req.Header.Set("Content-Type", tc.ct)
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
	}
	if m := g.metrics; countOf(m.Requests, BadRequest) != 4 || totalOf(m.Requests) != 4 || totalOf(m.BackendRequests) != 0 {
		t.Fatalf("bad_request=%d of %d requests, %d backend attempts; want 4 of 4 and none",
			countOf(m.Requests, BadRequest), totalOf(m.Requests), totalOf(m.BackendRequests))
	}
	for _, f := range backends {
		if f.briefs.Load() != 0 {
			t.Fatal("a refused request reached a backend")
		}
	}
}

// lifecycleBackend is an httptest backend whose /brief behaves as the
// request's ?mode= says, for the connection-lifecycle tests: how a reply is
// framed and when it arrives decide what the upstream may do with the
// connection afterwards.
type lifecycleBackend struct {
	ts      *httptest.Server
	open    atomic.Int64  // connections the server currently holds
	entered chan struct{} // one token per mode=block request that reached the handler
	release chan struct{} // closed to let mode=block requests return
	briefs  atomic.Int64
}

// chunkedReply is what mode=chunked streams: 3 KB in flushed pieces, so it
// crosses several reads and carries no Content-Length.
var chunkedReply = bytes.Repeat([]byte("0123456789abcdef"), 192)

func newLifecycleBackend(t *testing.T) *lifecycleBackend {
	t.Helper()
	lb := &lifecycleBackend{entered: make(chan struct{}, 16), release: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("/brief", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n := lb.briefs.Add(1)
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Query().Get("mode") {
		case "close":
			w.Header().Set("Connection", "close")
		case "chunked":
			for i := 0; i < len(chunkedReply); i += 512 {
				w.Write(chunkedReply[i : i+512])
				w.(http.Flusher).Flush()
			}
			return
		case "slow":
			time.Sleep(150 * time.Millisecond)
			fmt.Fprintf(w, "{\"late\":%d}\n", n)
			return
		case "block":
			lb.entered <- struct{}{}
			select {
			case <-lb.release:
			case <-r.Context().Done():
			}
			return
		}
		fmt.Fprintf(w, "{\"brief\":%d}\n", n)
	})
	lb.ts = httptest.NewUnstartedServer(mux)
	lb.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			lb.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			lb.open.Add(-1)
		}
	}
	lb.ts.Start()
	t.Cleanup(func() { close(lb.release); lb.ts.Close() })
	return lb
}

// newLifecycleGateway is a gateway over one lifecycleBackend with the
// prober parked and a breaker any blamed failure would trip, so "backend
// not blamed" is simply "no ejection".
func newLifecycleGateway(t *testing.T, mutate func(*Config)) (*Gateway, *httptest.Server, *lifecycleBackend) {
	t.Helper()
	lb := newLifecycleBackend(t)
	cfg := Config{
		Backends:         []string{lb.ts.Listener.Addr().String()},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		ProbeInterval:    time.Hour,
		Timeout:          5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.BeginShutdown)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts, lb
}

// backendBlock is the single backend's /metrics block.
func backendBlock(g *Gateway) backendSnapshot { return g.snapshot().Backends[0] }

// TestUpstreamStaleConnectionReplay (a): the backend closes its idle
// connections between two requests. The second finds the kept connection
// dead before any reply byte, redials and replays: the client sees a 200,
// no attempt is counted failed, the breaker stays closed, and exactly one
// stale replay is on the ledger.
func TestUpstreamStaleConnectionReplay(t *testing.T) {
	g, ts, lb := newLifecycleGateway(t, nil)
	if status, _ := post(t, ts.URL, "", "<p>one</p>"); status != http.StatusOK {
		t.Fatalf("first request: %d", status)
	}
	if b := backendBlock(g); b.IdleConns != 1 || b.UpstreamDials != 1 {
		t.Fatalf("after one request: %+v, want one dialed connection kept idle", b)
	}
	lb.ts.CloseClientConnections()
	waitCond(t, "backend to drop its connections", func() bool { return lb.open.Load() == 0 })

	status, body := post(t, ts.URL, "", "<p>two</p>")
	if status != http.StatusOK || string(body) != "{\"brief\":2}\n" {
		t.Fatalf("request over a stale connection: %d %q, want the second briefing", status, body)
	}
	b, m := backendBlock(g), g.metrics
	if b.UpstreamStaleReplays != 1 || b.UpstreamReused != 1 || b.UpstreamDials != 2 {
		t.Fatalf("ledger %+v, want 1 stale replay, 1 reuse, 2 dials", b)
	}
	if countOf(m.BackendRequests, BackendError) != 0 || b.Errors != 0 || totalOf(m.BackendRequests) != 2 || b.BreakerState != "closed" {
		t.Fatalf("a stale connection was charged to the backend: errors=%d attempts=%d breaker=%s",
			countOf(m.BackendRequests, BackendError), totalOf(m.BackendRequests), b.BreakerState)
	}
}

// TestUpstreamReplyFraming (b): a Connection: close reply and a chunked,
// flushed 3 KB reply both relay byte for byte; the closed connection is not
// kept, the chunked one is.
func TestUpstreamReplyFraming(t *testing.T) {
	g, ts, _ := newLifecycleGateway(t, nil)

	status, body := post(t, ts.URL, "mode=close", "<p>x</p>")
	if status != http.StatusOK || string(body) != "{\"brief\":1}\n" {
		t.Fatalf("Connection: close reply relayed as %d %q", status, body)
	}
	if b := backendBlock(g); b.IdleConns != 0 {
		t.Fatalf("kept a connection the backend said it was closing: %+v", b)
	}

	status, body = post(t, ts.URL, "mode=chunked", "<p>x</p>")
	if status != http.StatusOK || !bytes.Equal(body, chunkedReply) {
		t.Fatalf("chunked reply relayed as %d, %d bytes (want %d), equal=%v", status, len(body), len(chunkedReply), bytes.Equal(body, chunkedReply))
	}
	if b := backendBlock(g); b.IdleConns != 1 || b.UpstreamDials != 2 || b.UpstreamReused != 0 {
		t.Fatalf("after close then chunked: %+v, want a second dial, kept", b)
	}

	status, body = post(t, ts.URL, "", "<p>x</p>")
	if status != http.StatusOK || string(body) != "{\"brief\":3}\n" {
		t.Fatalf("request after the chunked reply: %d %q (a misread chunk trailer would desync it)", status, body)
	}
	if b := backendBlock(g); b.UpstreamReused != 1 || b.UpstreamDials != 2 || b.UpstreamStaleReplays != 0 {
		t.Fatalf("the chunked reply's connection was not reused: %+v", b)
	}
	if m := g.metrics; countOf(m.BackendRequests, BackendError) != 0 || countOf(m.Requests, Proxied) != 3 {
		t.Fatalf("errors=%d proxied=%d, want 0 and 3", countOf(m.BackendRequests, BackendError), countOf(m.Requests, Proxied))
	}
}

// TestUpstreamTimeoutDropsConnection (c): a backend slower than the
// deadline yields a 504 counted as timeout, without blaming the backend,
// and the connection is dropped — the next request gets its own reply on a
// new connection, not the late one left in the old.
func TestUpstreamTimeoutDropsConnection(t *testing.T) {
	g, ts, _ := newLifecycleGateway(t, func(c *Config) { c.Timeout = 30 * time.Millisecond })

	if status, _ := post(t, ts.URL, "mode=slow", "<p>x</p>"); status != http.StatusGatewayTimeout {
		t.Fatalf("slow backend: %d, want 504", status)
	}
	b, m := backendBlock(g), g.metrics
	if countOf(m.Requests, Timeout) != 1 || m.Ejections.Load() != 0 || b.BreakerState != "closed" {
		t.Fatalf("timeout=%d ejections=%d breaker=%s, want 1, 0, closed", countOf(m.Requests, Timeout), m.Ejections.Load(), b.BreakerState)
	}
	if b.IdleConns != 0 {
		t.Fatalf("kept the connection a deadline interrupted: %+v", b)
	}

	status, body := post(t, ts.URL, "", "<p>x</p>")
	if status != http.StatusOK || string(body) != "{\"brief\":2}\n" {
		t.Fatalf("request after the timeout: %d %q, want its own reply", status, body)
	}
	if b := backendBlock(g); b.UpstreamDials != 2 || b.UpstreamReused != 0 {
		t.Fatalf("request after the timeout did not get a fresh connection: %+v", b)
	}
}

// TestUpstreamClientDisconnect (d): the client hangs up while the backend
// is still working. The relay is interrupted at once (not when the backend
// answers), counted canceled, and the backend is not blamed.
func TestUpstreamClientDisconnect(t *testing.T) {
	g, ts, lb := newLifecycleGateway(t, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/brief?mode=block", strings.NewReader("<p>x</p>"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-lb.entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request returned a response")
	}

	m := g.metrics
	waitCond(t, "the relay to be counted canceled", func() bool { return countOf(m.Requests, Canceled) == 1 })
	b := backendBlock(g)
	if m.Ejections.Load() != 0 || b.BreakerState != "closed" || countOf(m.Requests, Timeout) != 0 {
		t.Fatalf("client disconnect blamed the backend: ejections=%d breaker=%s timeout=%d", m.Ejections.Load(), b.BreakerState, countOf(m.Requests, Timeout))
	}
	if b.IdleConns != 0 {
		t.Fatalf("kept an interrupted connection: %+v", b)
	}
	waitCond(t, "the interrupted connection to close", func() bool { return lb.open.Load() == 0 })
}

// TestUpstreamShutdownAndReap (e): BeginShutdown leaves no idle upstream
// connection open — the backend sees every one close — and a relay still
// in flight closes its own when it finishes. Before that, the idle reaper
// retires exactly the connections past idleConnTimeout.
func TestUpstreamShutdownAndReap(t *testing.T) {
	g, ts, lb := newLifecycleGateway(t, nil)
	up := g.backends[g.names[0]].up

	// Two concurrent relays leave two idle connections.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/brief?mode=block", "text/html", strings.NewReader("<p>x</p>"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	<-lb.entered
	<-lb.entered
	lb.release <- struct{}{}
	lb.release <- struct{}{}
	wg.Wait()
	if n := up.idleConns(); n != 2 {
		t.Fatalf("idle connections = %d after two concurrent relays, want 2", n)
	}

	up.reap(time.Now().Add(idleConnTimeout - time.Minute))
	if n := up.idleConns(); n != 2 {
		t.Fatalf("reaper closed connections idle for 30s: %d left of 2", n)
	}
	up.mu.Lock()
	up.idle[0].idleSince = time.Now().Add(-2 * idleConnTimeout)
	up.mu.Unlock()
	up.reap(time.Now())
	if n := up.idleConns(); n != 1 {
		t.Fatalf("reaper left %d connections, want the one still fresh", n)
	}
	waitCond(t, "the reaped connection to close", func() bool { return lb.open.Load() == 1 })

	// One relay in flight across the shutdown.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/brief?mode=block", "text/html", strings.NewReader("<p>x</p>"))
		if err != nil {
			inflight <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-lb.entered // it took the idle connection
	if status, _ := post(t, ts.URL, "", "<p>x</p>"); status != http.StatusOK {
		t.Fatalf("second relay: %d", status)
	}
	if n := up.idleConns(); n != 1 {
		t.Fatalf("idle connections = %d before shutdown, want 1", n)
	}

	g.BeginShutdown()
	if n := backendBlock(g).IdleConns; n != 0 {
		t.Fatalf("idle_conns = %d after BeginShutdown, want 0", n)
	}
	waitCond(t, "idle connection to close at the backend", func() bool { return lb.open.Load() == 1 })
	lb.release <- struct{}{}
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("relay in flight across BeginShutdown: %d, want 200", status)
	}
	waitCond(t, "the last connection to close", func() bool { return lb.open.Load() == 0 })
	if n := up.idleConns(); n != 0 {
		t.Fatalf("a relay finishing after shutdown parked its connection: %d idle", n)
	}
}

// TestGatewayBoundsRelayedReply: a backend that answers with more than the
// body limit — declared up front, or streamed without end — is a failed
// attempt charged to it (backend_error_total, breaker), the gateway hangs
// up instead of buffering the rest, and failover serves the client from
// the next candidate.
func TestGatewayBoundsRelayedReply(t *testing.T) {
	for _, mode := range []string{"declared", "streamed"} {
		t.Run(mode, func(t *testing.T) {
			const limit = 1024
			chunk := bytes.Repeat([]byte("x"), 1024)
			var hungUp atomic.Bool
			g, ts, backends := newTestGateway(t, 2, func(c *Config) {
				c.MaxBodyBytes = limit
				c.BreakerThreshold = 1
				c.BreakerCooldown = time.Hour
			})
			brokenName := g.Ring().Backends()[0]
			broken := backends[brokenName]
			broken.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				if mode == "declared" {
					w.Header().Set("Content-Length", "4096")
					w.Write(bytes.Repeat(chunk, 4))
					return
				}
				for i := 0; i < 64<<10; i++ { // 64 MiB unless the peer hangs up
					if _, err := w.Write(chunk); err != nil {
						hungUp.Store(true)
						return
					}
					w.(http.Flusher).Flush()
				}
			})

			status, body := post(t, ts.URL, "src="+domainOwnedBy(t, g.Ring(), brokenName), "<p>x</p>")
			if status != http.StatusOK || servedBy(t, body) == brokenName {
				t.Fatalf("client got %d %q, want a 200 from the healthy backend", status, body)
			}
			m := g.metrics
			if countOf(m.BackendRequests, BackendError) != 1 || totalOf(m.BackendRequests) != 2 || m.Ejections.Load() != 1 {
				t.Fatalf("backend_error=%d attempts=%d ejections=%d, want 1, 2, 1",
					countOf(m.BackendRequests, BackendError), totalOf(m.BackendRequests), m.Ejections.Load())
			}
			for _, b := range g.snapshot().Backends {
				if b.Name == brokenName && (b.Errors != 1 || b.IdleConns != 0) {
					t.Fatalf("broken backend block %+v, want 1 error and no kept connection", b)
				}
			}
			if mode == "streamed" {
				waitCond(t, "the gateway to hang up on the endless reply", hungUp.Load)
			}
		})
	}
}
