// Package httpwiretest serves a handler the way wbserve and wbgate serve
// theirs, on httpwire over loopback, holds the raw clients both tiers'
// chaos suites send below net/http's client, and counts the calls a
// connection's owner makes on it.
package httpwiretest

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// ConnOps counts the calls made on a connection that each cost a system
// call: reads, writes and deadline sets (SetDeadline, SetReadDeadline and
// SetWriteDeadline alike). An allocation gate does not see them.
type ConnOps struct{ Reads, Writes, Deadlines int64 }

// PerOp is the count per operation from before to o over n operations,
// each rounded to the nearest whole call: a server's read for the next
// request starts just after the reply its client waits for, so either end
// of a window may hold one call more or less than the operations in it.
func (o ConnOps) PerOp(before ConnOps, n int64) ConnOps {
	per := func(now, then int64) int64 { return (now - then + n/2) / n }
	return ConnOps{per(o.Reads, before.Reads), per(o.Writes, before.Writes), per(o.Deadlines, before.Deadlines)}
}

// CountingConn is a net.Conn that counts the calls made on it. It hides
// the wrapped connection's other methods: a net.Buffers written to it is
// written one Write per buffer, not as one writev.
type CountingConn struct {
	net.Conn
	reads, writes, deadlines atomic.Int64
}

func (c *CountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *CountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *CountingConn) SetDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetDeadline(t)
}

func (c *CountingConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *CountingConn) SetWriteDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// Ops is the count so far.
func (c *CountingConn) Ops() ConnOps {
	return ConnOps{c.reads.Load(), c.writes.Load(), c.deadlines.Load()}
}

// CountingListener wraps every connection it accepts in a CountingConn.
type CountingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*CountingConn
}

func (l *CountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &CountingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// Ops is the count so far over every accepted connection.
func (l *CountingListener) Ops() ConnOps {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum ConnOps
	for _, c := range l.conns {
		o := c.Ops()
		sum.Reads, sum.Writes, sum.Deadlines = sum.Reads+o.Reads, sum.Writes+o.Writes, sum.Deadlines+o.Deadlines
	}
	return sum
}
