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
// request line, its URL, the header map and its values (net/textproto's),
// the context and the request itself: measured 12, where net/http's server
// measured 26 in the same fixture.
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
		if im.name == "httpwire" && allocs > 12 {
			t.Errorf("one warm keep-alive request through httpwire allocates %.1f, want <= 12", allocs)
		}
	}
}
