package httpwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// impl is one HTTP/1.1 server the wire table runs against: net/http's, the
// reference, with httpwire's connection limits, and httpwire's.
type impl struct {
	name  string
	start func(t testing.TB, h http.Handler) string // serves h on loopback, returns host:port
}

var impls = []impl{
	{"net/http", func(t testing.TB, h http.Handler) string {
		srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
			MaxHeaderBytes: maxHeaderBytes, ErrorLog: log.New(io.Discard, "", 0)}
		return serveOn(t, srv.Serve, srv.Shutdown)
	}},
	{"httpwire", func(t testing.TB, h http.Handler) string {
		srv := &Server{Handler: h}
		return serveOn(t, srv.Serve, srv.Shutdown)
	}},
}

func serveOn(t testing.TB, serve func(net.Listener) error, shutdown func(context.Context) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// disconnectProbe is what a disconnect row's handler reports: that it
// started, and the request context's error when it finished (the
// hang-up row's /big handler reports only the latter).
type disconnectProbe struct {
	entered chan struct{}
	release chan struct{} // closed by the row once the client is gone (hit only)
	err     chan error
}

// wireHandler is the handler behind every row, one per server.
func wireHandler(probes map[string]*disconnectProbe) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Write(b)
	})
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ignored")
	})
	mux.HandleFunc("/close", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "close")
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "bye")
	})
	mux.HandleFunc("/sniff", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "<html><body>sniff me</body></html>")
	})
	mux.HandleFunc("/status/", func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/status/"))
		w.WriteHeader(code)
		io.WriteString(w, "dropped")
	})
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("wire table panic") })
	mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	mux.HandleFunc("/wait", func(w http.ResponseWriter, r *http.Request) {
		p := probes[r.URL.RawQuery]
		io.Copy(io.Discard, r.Body)
		p.entered <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		p.err <- r.Context().Err()
	})
	mux.HandleFunc("/watched", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done(): // arms the disconnect watch
		default:
		}
		io.WriteString(w, "watched")
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		p := probes[r.URL.RawQuery]
		w.Header().Set("Content-Type", "text/plain")
		w.Write(bigReply)
		p.err <- r.Context().Err()
	})
	mux.HandleFunc("/hit", func(w http.ResponseWriter, r *http.Request) {
		p := probes[r.URL.RawQuery]
		io.Copy(io.Discard, r.Body)
		p.entered <- struct{}{}
		<-p.release
		p.err <- r.Context().Err()
		io.WriteString(w, "cached briefing")
	})
	return mux
}

// reply is one response as the client read it.
type reply struct {
	status int
	body   string
}

// outcome is what a row expects: the replies in order, then whether the
// connection is still open.
type outcome struct {
	replies []reply
	open    bool
}

// wireRow is one case of the table: raw request bytes and what comes back.
type wireRow struct {
	name string
	raw  string
	want outcome
	// ref is net/http's outcome where the two servers differ on purpose
	// (each such row is named in CHANGES.md); nil means both give want.
	ref *outcome
	// head reads the replies as answers to HEAD.
	head bool
	// check looks at the first reply's header.
	check func(t *testing.T, h http.Header, body string)
	// disconnect: the client hangs up once the handler has started, and the
	// row checks the context error the handler saw (per server).
	disconnect *disconnectRow
	// hangUpMidResponse: the client reads the status line of a reply larger
	// than the socket buffers and hangs up (runHangUp).
	hangUpMidResponse bool
}

// bigReply is /big's body: more than loopback's socket buffers hold, so the
// server is still writing when the client hangs up.
var bigReply = []byte(strings.Repeat("b", 8<<20))

type disconnectRow struct {
	path   string            // /wait or /hit
	wantFn func(error) error // nil error when the handler's context error is right
	refFn  func(error) error
}

func canceled(err error) error {
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("handler context error %v, want context.Canceled", err)
	}
	return nil
}

func notCanceled(err error) error {
	if err != nil {
		return fmt.Errorf("handler context error %v, want none: nothing waited on it", err)
	}
	return nil
}

const host = "Host: wire.test\r\n"

func post(path, body string, extra ...string) string {
	return "POST " + path + " HTTP/1.1\r\n" + host + strings.Join(extra, "") +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

func get(path string, extra ...string) string {
	return "GET " + path + " HTTP/1.1\r\n" + host + strings.Join(extra, "") + "\r\n"
}

var (
	ok200      = func(body string) reply { return reply{http.StatusOK, body} }
	bad400     = reply{http.StatusBadRequest, "400 Bad Request"}
	closedWith = func(r ...reply) outcome { return outcome{replies: r} }
	openWith   = func(r ...reply) outcome { return outcome{replies: r, open: true} }
)

// wireRows is one row per rule of the package comment, plus the two
// disconnect cases.
var wireRows = []wireRow{
	// Connections.
	{name: "HTTP/1.1 keeps the connection", raw: get("/echo"), want: openWith(ok200(""))},
	{name: "HTTP/1.0 closes it", raw: "GET /echo HTTP/1.0\r\n\r\n", want: closedWith(ok200(""))},
	{name: "HTTP/1.0 keep-alive keeps it", raw: "GET /echo HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", want: openWith(ok200(""))},
	{name: "pipelined requests answered in order", raw: post("/echo", "one") + post("/echo", "two") + get("/ignore"),
		want: openWith(ok200("one"), ok200("two"), ok200("ignored"))},
	{name: "client Connection: close", raw: get("/echo", "Connection: close\r\n"), want: closedWith(ok200(""))},
	{name: "handler Connection: close", raw: get("/close") + get("/echo"), want: closedWith(ok200("bye"))},

	// Request bodies.
	{name: "Content-Length body", raw: post("/echo", "<p>page</p>"), want: openWith(ok200("<p>page</p>"))},
	{name: "chunked body, trailer consumed", raw: "POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n" +
		"3\r\nabc\r\n4;ext=1\r\ndefg\r\n0\r\nX-Checksum: 7\r\n\r\n" + post("/echo", "next"),
		want: openWith(ok200("abcdefg"), ok200("next"))},
	{name: "no body", raw: "POST /echo HTTP/1.1\r\n" + host + "\r\n", want: openWith(ok200(""))},
	{name: "Content-Length not digits", raw: "POST /echo HTTP/1.1\r\n" + host + "Content-Length: +3\r\n\r\nabc", want: closedWith(bad400)},
	{name: "Content-Length values differ", raw: "POST /echo HTTP/1.1\r\n" + host + "Content-Length: 3\r\nContent-Length: 4\r\n\r\nabcd", want: closedWith(bad400)},
	{name: "Content-Length repeated alike", raw: "POST /echo HTTP/1.1\r\n" + host + "Content-Length: 3\r\nContent-Length: 3\r\n\r\nabc", want: openWith(ok200("abc"))},
	{name: "Transfer-Encoding beside Content-Length", raw: "POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		want: closedWith(bad400), ref: &outcome{replies: []reply{ok200("abc")}, open: true}},
	{name: "Transfer-Encoding other than chunked", raw: "POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: gzip\r\n\r\n",
		want: closedWith(reply{http.StatusNotImplemented, "Unsupported transfer encoding"})},
	{name: "Expect: 100-continue answered on the first read", raw: post("/echo", "abc", "Expect: 100-continue\r\n"),
		want: openWith(reply{http.StatusContinue, ""}, ok200("abc"))},

	// Head checks.
	{name: "head over 64 KiB", raw: get("/echo", "X-Pad: "+strings.Repeat("p", 70<<10)+"\r\n"),
		want: closedWith(reply{http.StatusRequestHeaderFieldsTooLarge, "431 Request Header Fields Too Large"})},
	{name: "one line may use the whole head", raw: get("/echo", "X-Pad: "+strings.Repeat("p", 63<<10)+"\r\n"), want: openWith(ok200(""))},
	{name: "HTTP/1.1 without Host", raw: "GET /echo HTTP/1.1\r\n\r\n", want: closedWith(reply{http.StatusBadRequest, "400 Bad Request: missing required Host header"})},
	{name: "two Hosts", raw: "GET /echo HTTP/1.1\r\n" + host + host + "\r\n", want: closedWith(bad400)},
	{name: "header name not a token", raw: get("/echo", "Bad Name: x\r\n"), want: closedWith(reply{http.StatusBadRequest, "400 Bad Request: invalid header name"})},
	{name: "control byte in a header value", raw: get("/echo", "X-Note: a\x01b\r\n"), want: closedWith(bad400)},
	{name: "request-target url.ParseRequestURI refuses", raw: "GET echo HTTP/1.1\r\n" + host + "\r\n", want: closedWith(bad400)},
	{name: "not HTTP/1.x", raw: "GET /echo HTTP/2.1\r\n" + host + "\r\n",
		want: closedWith(reply{http.StatusHTTPVersionNotSupported, "505 HTTP Version Not Supported: unsupported protocol version"})},

	// Responses.
	{name: "Date and Content-Length", raw: post("/echo", "12345"), want: openWith(ok200("12345")),
		check: func(t *testing.T, h http.Header, body string) {
			if h.Get("Date") == "" || h.Get("Content-Length") != strconv.Itoa(len(body)) {
				t.Errorf("Date %q, Content-Length %q for a %d-byte body", h.Get("Date"), h.Get("Content-Length"), len(body))
			}
		}},
	{name: "Content-Type sniffed when unset", raw: get("/sniff"), want: openWith(ok200("<html><body>sniff me</body></html>")),
		check: func(t *testing.T, h http.Header, _ string) {
			if ct := h.Get("Content-Type"); ct != "text/html; charset=utf-8" {
				t.Errorf("Content-Type %q, want the sniffed text/html", ct)
			}
		}},
	{name: "HEAD has no body", raw: "HEAD /echo HTTP/1.1\r\n" + host + "\r\n" + get("/ignore"), head: true, want: openWith(ok200(""), ok200("ignored"))},
	{name: "204 has no body", raw: get("/status/204") + get("/ignore"), want: openWith(reply{http.StatusNoContent, ""}, ok200("ignored"))},
	{name: "304 has no body", raw: get("/status/304") + get("/ignore"), want: openWith(reply{http.StatusNotModified, ""}, ok200("ignored"))},
	{name: "small unread body discarded, connection kept", raw: post("/ignore", strings.Repeat("b", 4<<10)) + get("/echo"),
		want: openWith(ok200("ignored"), ok200(""))},
	{name: "unread body over 256 KiB closes", raw: post("/ignore", strings.Repeat("b", 300<<10)), want: closedWith(ok200("ignored"))},

	// Handler panics.
	{name: "panic closes the connection", raw: get("/panic") + get("/echo"), want: closedWith()},
	{name: "ErrAbortHandler closes it", raw: get("/abort") + get("/echo"), want: closedWith()},

	// Disconnects.
	{name: "disconnect cancels a handler waiting on Done", disconnect: &disconnectRow{path: "/wait", wantFn: canceled}},
	{name: "disconnect a hit handler never observes", disconnect: &disconnectRow{path: "/hit", wantFn: notCanceled, refFn: canceled}},
	// The watch's read must end with the request: the client waits for the
	// reply, so it sends nothing that would end the read.
	{name: "a handler that armed the watch answers at once", raw: post("/watched", "<p>page</p>"), want: openWith(ok200("watched"))},
	{name: "client hangs up mid-response", hangUpMidResponse: true},
}

// TestWireBehaviour drives every row through net/http's server and through
// httpwire's, one server of each per test, rows in parallel.
func TestWireBehaviour(t *testing.T) {
	// The panic rows' stack traces go to the standard logger.
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			probes := map[string]*disconnectProbe{}
			for _, row := range wireRows {
				if row.disconnect != nil || row.hangUpMidResponse {
					probes[queryOf(row.name)] = &disconnectProbe{
						entered: make(chan struct{}, 1), release: make(chan struct{}), err: make(chan error, 1),
					}
				}
			}
			addr := im.start(t, wireHandler(probes))
			for _, row := range wireRows {
				t.Run(row.name, func(t *testing.T) {
					if row.hangUpMidResponse {
						// Not parallel: it counts goroutines, which other rows start.
						runHangUp(t, addr, probes[queryOf(row.name)])
						return
					}
					t.Parallel()
					if row.disconnect != nil {
						runDisconnect(t, im.name, addr, row, probes[queryOf(row.name)])
						return
					}
					want := row.want
					if row.ref != nil && im.name == "net/http" {
						want = *row.ref
					}
					runRow(t, addr, row, want)
				})
			}
		})
	}
}

func queryOf(name string) string { return "row=" + strings.ReplaceAll(name, " ", "-") }

func runRow(t *testing.T, addr string, row wireRow, want outcome) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	// The write runs beside the reads: a server may answer (and close)
	// before it has read everything sent.
	go io.WriteString(c, row.raw)

	br := bufio.NewReader(c)
	method := http.MethodGet
	if row.head {
		method = http.MethodHead
	}
	for i, w := range want.replies {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reply %d body: %v", i, err)
		}
		if resp.StatusCode != w.status || string(b) != w.body {
			t.Fatalf("reply %d: %d %q, want %d %q", i, resp.StatusCode, b, w.status, w.body)
		}
		if i == 0 && row.check != nil {
			row.check(t, resp.Header, string(b))
		}
		method = http.MethodGet
	}

	// Open: nothing more arrives and the read times out. Closed: EOF (or a
	// reset) arrives.
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if !want.open {
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
	}
	n, err := br.Read(make([]byte, 1))
	var ne net.Error
	open := errors.As(err, &ne) && ne.Timeout()
	if n > 0 {
		t.Fatalf("unexpected bytes after the replies")
	}
	if open != want.open {
		t.Fatalf("connection open=%v after the replies (read: %v), want open=%v", open, err, want.open)
	}
}

func runDisconnect(t *testing.T, implName, addr string, row wireRow, p *disconnectProbe) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, post(row.disconnect.path+"?"+queryOf(row.name), "<p>page</p>")); err != nil {
		t.Fatal(err)
	}
	<-p.entered
	c.Close()
	if row.disconnect.path == "/hit" {
		// Long enough for a watching server to see the hang-up.
		time.Sleep(100 * time.Millisecond)
		close(p.release)
	}
	check := row.disconnect.wantFn
	if row.disconnect.refFn != nil && implName == "net/http" {
		check = row.disconnect.refFn
	}
	select {
	case got := <-p.err:
		if err := check(got); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never finished")
	}
}

// runHangUp: the client asks for /big, reads the status line and hangs up.
// The handler returns, the server closes the connection and serves the next
// one, and the goroutine count returns to what it was before the request.
func runHangUp(t *testing.T, addr string, p *disconnectProbe) {
	baseline := runtime.NumGoroutine()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, get("/big?"+queryOf("client hangs up mid-response"))); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "HTTP/1.1 200 ") {
		t.Fatalf("status line %q, %v", line, err)
	}
	c.Close()
	select {
	case <-p.err:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never returned")
	}
	runRow(t, addr, wireRow{raw: get("/echo")}, openWith(ok200("")))
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the hang-up: the server kept the connection", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownDrains: Shutdown closes an idle keep-alive connection at once,
// lets an active request finish and answer, then returns.
func TestShutdownDrains(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "done")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleBR := bufio.NewReader(idle)
	io.WriteString(idle, get("/fast"))
	if resp, err := http.ReadResponse(idleBR, nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("idle connection's request: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}

	active, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	io.WriteString(active, get("/slow"))
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idleBR.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection after Shutdown: %v, want EOF", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp, err := http.ReadResponse(bufio.NewReader(active), nil)
	if err != nil || resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight request across Shutdown: %v %v", resp, err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepts after Shutdown")
	}
}
