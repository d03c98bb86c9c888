package gateway

import (
	"fmt"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"webbrief/internal/httpwire/httpwiretest"
)

// stalledListener is a loopback address whose connects hang: a listening
// socket with a backlog of 0, never accepted from, whose one queued
// connection fills its accept queue, so the kernel drops every later SYN.
func stalledListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return addr // the queue is full
		}
		t.Cleanup(func() { c.Close() })
		if i == 8 {
			t.Skip("the kernel keeps accepting connects past a zero backlog")
		}
	}
}

// TestUpstreamDisconnectDuringDial: a relay whose dial outlasts replyGrace
// watches its client from then on, so the client hanging up mid-dial cancels
// the relay long before its deadline, and the backend is not blamed.
func TestUpstreamDisconnectDuringDial(t *testing.T) {
	addr := stalledListener(t)
	g, err := New(Config{Backends: []string{addr}, BreakerThreshold: 1, BreakerCooldown: time.Hour,
		ProbeInterval: time.Hour, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beginShutdown(t, g) })
	ts := httpwiretest.NewFront(t, g)

	c, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	page := "<p>x</p>"
	if _, err := fmt.Fprintf(c, "POST /brief HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n\r\n%s", len(page), page); err != nil {
		t.Fatal(err)
	}
	m := g.metrics
	waitCond(t, "the relay to start its dial", func() bool { return backendBlock(g).UpstreamDials == 1 })
	time.Sleep(20 * replyGrace)
	c.Close()
	hungUp := time.Now()
	waitCond(t, "the relay to be counted canceled", func() bool { return countOf(m.Requests, Canceled) == 1 })
	if d := time.Since(hungUp); d > 5*time.Second {
		t.Fatalf("relay canceled %v after the hang-up", d)
	}
	if m.Ejections.Load() != 0 || countOf(m.Requests, Timeout) != 0 {
		t.Fatalf("a hang-up mid-dial: ejections=%d timeout=%d, want 0 and 0", m.Ejections.Load(), countOf(m.Requests, Timeout))
	}
}
