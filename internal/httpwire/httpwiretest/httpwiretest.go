// Package httpwiretest serves a handler the way wbserve and wbgate serve
// theirs, on httpwire over loopback, and holds the raw clients both tiers'
// chaos suites send below net/http's client.
package httpwiretest

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

// Front is a handler served on an httpwire.Server over loopback.
type Front struct {
	URL string
}

// NewFront serves h until the test ends.
func NewFront(t testing.TB, h http.Handler) *Front {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return &Front{URL: "http://" + ln.Addr().String()}
}

// RawRequest sends head at once and body byte by byte, trickle apart (all
// at once when trickle is 0), over a connection of its own, and reads one
// response beside the writes.
func RawRequest(t testing.TB, url, head, body string, trickle time.Duration) (int, string) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	writeDone := make(chan struct{}, 1)
	defer func() {
		c.Close() // ends a trickle the server answered early
		<-writeDone
	}()
	go func() {
		if _, err := io.WriteString(c, head); err != nil || trickle == 0 {
			io.WriteString(c, body)
		} else {
			for i := 0; i < len(body); i++ {
				if _, err := c.Write([]byte{body[i]}); err != nil {
					break
				}
				time.Sleep(trickle)
			}
		}
		writeDone <- struct{}{}
	}()
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("raw request: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// RawPostHead is the head of a POST /brief of n bytes.
func RawPostHead(n int, extra string) string {
	return "POST /brief HTTP/1.1\r\nHost: wire.test\r\nContent-Type: text/html\r\n" + extra +
		"Content-Length: " + strconv.Itoa(n) + "\r\n\r\n"
}

// HangUpMidBody sends the head of an n-byte post and half its body, then
// closes the connection.
func HangUpMidBody(t testing.TB, url string, n int) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, RawPostHead(n, "")+strings.Repeat("x", n/2))
	c.Close()
}
