package gateway

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"webbrief/internal/httpwire"
)

// wireFront is a handler served the way cmd/wbgate and cmd/wbserve serve
// theirs: on httpwire, over loopback, with the binaries' connection limits.
type wireFront struct {
	URL string
	srv *httpwire.Server
}

func newWireFront(t testing.TB, h http.Handler) *wireFront {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &wireFront{URL: "http://" + ln.Addr().String(), srv: &httpwire.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}}
	served := make(chan struct{})
	go func() { defer close(served); f.srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		f.srv.Shutdown(ctx)
		<-served
	})
	return f
}

// rawRequest is a client below net/http's: it sends head at once and body
// byte by byte, trickle apart (all at once when trickle is 0), over a
// connection of its own, and reads one response beside the writes.
func rawRequest(t testing.TB, url, head, body string, trickle time.Duration) (int, string) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		if _, err := io.WriteString(c, head); err != nil || trickle == 0 {
			io.WriteString(c, body)
			return
		}
		for i := 0; i < len(body); i++ {
			if _, err := c.Write([]byte{body[i]}); err != nil {
				return
			}
			time.Sleep(trickle)
		}
	}()
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("raw request: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// rawPostHead is the head of a POST /brief of n bytes.
func rawPostHead(n int, extra string) string {
	return "POST /brief HTTP/1.1\r\nHost: wire.test\r\nContent-Type: text/html\r\n" + extra +
		"Content-Length: " + strconv.Itoa(n) + "\r\n\r\n"
}

// hangUpMidBody sends the head of an n-byte post and half its body, then
// closes the connection.
func hangUpMidBody(t testing.TB, url string, n int) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, rawPostHead(n, "")+strings.Repeat("x", n/2))
	c.Close()
}
