package httpwire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// briefReply is a briefing-sized JSON reply, the body of a cache hit.
var briefReply = []byte(`{"Topic":["job","recruitment","website"],"Attributes":[{"Name":"title","Value":"engineer"}]}` + "\n")

// jsonType is assigned, not Set, so the handler itself allocates nothing.
var jsonType = []string{"application/json"}

// hitHandler answers like a raw-key cache hit: it reads the page, writes a
// fixed briefing, and never looks at its context.
var hitHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.Header()["Content-Type"] = jsonType
	w.Write(briefReply)
})

// hitRequest posts an 850-byte page, the benchmark's median, with the head
// wbgate's upstream writes.
var hitRequest = func() []byte {
	page := strings.Repeat("<p>briefing page text</p>\n", 34)[:850]
	return []byte(fmt.Sprintf("POST /brief?src=https://s1.books.example/p HTTP/1.1\r\nHost: 127.0.0.1:8081\r\n"+
		"Content-Type: text/html\r\nX-Request-Id: 0123456789abcdef\r\nContent-Length: %d\r\n\r\n%s", len(page), page))
}()

// rawClient sends one fixed request per round trip and reads the reply
// without allocating: the status line and header lines up to the blank
// one, then Content-Length bytes.
type rawClient struct {
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(tb testing.TB, addr string) *rawClient {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	return &rawClient{c: c, br: bufio.NewReader(c)}
}

func (rc *rawClient) roundTrip(tb testing.TB) {
	if _, err := rc.c.Write(hitRequest); err != nil {
		tb.Fatal(err)
	}
	n := -1
	for first := true; ; first = false {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			tb.Fatal(err)
		}
		if first && !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
			tb.Fatalf("status line %q", line)
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n = 0
			for _, c := range bytes.TrimSpace(v) {
				n = 10*n + int(c-'0')
			}
		}
	}
	if n != len(briefReply) {
		tb.Fatalf("Content-Length %d, want %d", n, len(briefReply))
	}
	if _, err := rc.br.Discard(n); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkServer is the impl × connection grid over loopback: one cache
// hit answered on a kept-alive connection, or on a new connection per
// request. Client and server share the process; run it at -cpu 1, as the
// tiers run, and compare within a row.
func BenchmarkServer(b *testing.B) {
	for _, im := range impls {
		for _, mode := range []string{"keep-alive", "new-conn"} {
			b.Run(im.name+"/"+mode, func(b *testing.B) {
				addr := im.start(b, hitHandler)
				rc := dialRaw(b, addr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "new-conn" {
						rc.c.Close()
						rc = dialRaw(b, addr)
					}
					rc.roundTrip(b)
				}
				b.StopTimer()
				rc.c.Close()
			})
		}
	}
}

// TestServerAllocs pins what one warm keep-alive request costs httpwire in
// allocations, client and handler included (both allocate nothing): the
// head's one string, the request (its http.Request, URL, context and first
// header values in one allocation) and the header map (two: the map and its
// first group). Measured 4, where net/http's server measured 26 in the same
// fixture; the head parsed through net/textproto and net/url measured 12.
func TestServerAllocs(t *testing.T) {
	for _, im := range impls {
		addr := im.start(t, hitHandler)
		rc := dialRaw(t, addr)
		defer rc.c.Close()
		for i := 0; i < 5; i++ {
			rc.roundTrip(t)
		}
		allocs := testing.AllocsPerRun(200, func() { rc.roundTrip(t) })
		t.Logf("%s: %.1f allocs per keep-alive request", im.name, allocs)
		if im.name == "httpwire" && allocs > 4 {
			t.Errorf("one warm keep-alive request through httpwire allocates %.1f, want <= 4", allocs)
		}
	}
}

// parseHeads are the heads both tiers parse on every briefing, in each
// direction. Requests: the load generator's (net/http's client) posting to
// wbgate, and wbgate's relay to a backend (hitRequest's). Replies, read
// whole by the relay: wbserve's briefing as httpwire sends it, the same with
// the eight-stage Server-Timing field of the gateway's TestRelayAllocs
// fixture, and a chunked reply of three 512-byte chunks.
var parseHeads = []struct{ dir, name, raw string }{
	{"request", "loadgen", "POST /brief?src=https://s3.books.example/p HTTP/1.1\r\nHost: 127.0.0.1:18419\r\n" +
		"User-Agent: Go-http-client/1.1\r\nContent-Length: 850\r\nContent-Type: text/html\r\nAccept-Encoding: gzip\r\n\r\n"},
	{"request", "relay", string(hitRequest[:bytes.Index(hitRequest, []byte("\r\n\r\n"))+4])},
	{"reply", "brief", briefHead("")},
	{"reply", "brief-timed", briefHead("Server-Timing: read;dur=0.004, cache;dur=0.002, queue_wait;dur=0.001, parse;dur=0.061, " +
		"encode;dur=0.412, decode;dur=1.208, reply;dur=0.006, log;dur=0.003\r\n")},
	{"reply", "chunked", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Mon, 19 Oct 2026 17:30:00 GMT\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n" + strings.Repeat("200\r\n"+strings.Repeat("0123456789abcdef", 32)+"\r\n", 3) + "0\r\n\r\n"},
}

// briefHead is wbserve's reply to a briefing, with timing (a whole field
// line, or "") among its fields.
func briefHead(timing string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: application/json\r\n"+
		"Date: Mon, 19 Oct 2026 17:30:00 GMT\r\n%sX-Request-Id: 5f3a9c1e00000001\r\n\r\n%s", len(briefReply), timing, briefReply)
}

// BenchmarkParseHead is the direction × impl × head grid of one head parse
// from a buffered reader. A request is parsed by httpwire's readHead and
// parseHead against net/http's http.ReadRequest, the reference
// FuzzRequestHead holds it to; a reply is read whole, body included, by
// ReadReply against http.ReadResponse and a read of its body, the reference
// FuzzReplyHead holds it to.
func BenchmarkParseHead(b *testing.B) {
	for _, h := range parseHeads {
		for _, impl := range []string{"httpwire", "net/http"} {
			b.Run(h.dir+"/"+impl+"/"+h.name, func(b *testing.B) {
				r := strings.NewReader(h.raw)
				br := bufio.NewReaderSize(r, 4<<10)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.Reset(h.raw)
					br.Reset(r)
					if err := parseOnce(br, h.dir, impl); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// parseOnce parses one head from br, in the direction and with the impl
// BenchmarkParseHead names.
func parseOnce(br *bufio.Reader, dir, impl string) error {
	switch {
	case dir == "request" && impl == "httpwire":
		head, err := readHead(br, 0, maxHeaderBytes+4<<10)
		if err != nil {
			return err
		}
		return parseHead(string(head), new(request))
	case dir == "request":
		_, err := http.ReadRequest(br)
		return err
	case impl == "httpwire":
		_, err := ReadReply(br, 1<<20)
		return err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	_, err = Read(resp.Body, resp.ContentLength, 1<<20)
	return err
}
