package httpwire_test

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"webbrief/internal/httpwire"
	"webbrief/internal/httpwire/httpwiretest"
)

// TestServerConnOps pins what one warm keep-alive cache hit costs the server
// in calls on its connection: one read (the whole request arrives in one
// segment), one write (the response goes out whole) and two deadline sets
// (the idle deadline armed before the request's first byte, cleared after
// its head). A parser that peeks differently would add a read(2) per
// request that TestServerAllocs does not see.
func TestServerConnOps(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &httpwiretest.CountingListener{Listener: ln}
	srv := &httpwire.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header()["Content-Type"] = []string{"application/json"}
		io.WriteString(w, `{"Topic":["job","recruitment","website"]}`+"\n")
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(cl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	})

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	page := strings.Repeat("<p>briefing page text</p>\n", 34)[:850]
	request := "POST /brief?src=https://s1.books.example/p HTTP/1.1\r\nHost: 127.0.0.1:8081\r\n" +
		"Content-Type: text/html\r\nX-Request-Id: 0123456789abcdef\r\nContent-Length: 850\r\n\r\n" + page
	hit := func() {
		if _, err := io.WriteString(c, request); err != nil {
			t.Fatal(err)
		}
		if rep, err := httpwire.ReadReply(br, 1<<20); err != nil || rep.Status != http.StatusOK || rep.Close {
			t.Fatalf("reply %+v, %v", rep, err)
		}
	}
	for i := 0; i < 5; i++ {
		hit()
	}
	const n = 200
	before := cl.Ops()
	for i := 0; i < n; i++ {
		hit()
	}
	got := cl.Ops().PerOp(before, n)
	t.Logf("per warm keep-alive hit: %+v", got)
	if want := (httpwiretest.ConnOps{Reads: 1, Writes: 1, Deadlines: 2}); got != want {
		t.Fatalf("one warm keep-alive hit makes %+v calls on its connection, want %+v", got, want)
	}
}
