package gateway

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"webbrief/internal/httpwire/httpwiretest"
	"webbrief/internal/serve"
)

// routeReply is one tier's answer to a routing row: the status, and the body
// whole, or only its start where the rest holds measurements.
type routeReply struct {
	status int
	body   string
	prefix bool
}

// TestRoutingTable sends each row's raw request to a wbserve backend and to
// the wbgate in front of it, both on httpwire, and pins each tier's status
// and body. Both route on the exact path, whatever the method: an unclean
// path ("//brief", "/./brief"), which http.ServeMux answered with a 301 to
// the clean one, is a 404, and so is the asterisk target ServeMux answered
// with a 400. In wbgate's bodies BACKEND stands for the backend's address.
func TestRoutingTable(t *testing.T) {
	srv := serve.NewFromPool(serve.PoolOf(stubReplica{}), serve.Config{ProbeInterval: time.Hour})
	back := httpwiretest.NewFront(t, srv)
	name := strings.TrimPrefix(back.URL, "http://")
	g, err := New(Config{Backends: []string{name}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beginShutdown(t, g) })
	gate := httpwiretest.NewFront(t, g)

	const (
		page     = "Content-Length: 8\r\n\r\n<p>x</p>"
		brief    = `{"Topic":["ok"],"Attributes":null,"Sections":null}` + "\n"
		notFound = "404 page not found\n"
		postOnly = "POST the page HTML as the request body\n"
	)
	both := func(r routeReply) [2]routeReply { return [2]routeReply{r, r} }
	for _, row := range []struct {
		raw  string
		want [2]routeReply // wbserve's, then wbgate's
	}{
		{"POST /brief HTTP/1.1\r\nHost: a\r\n" + page, both(routeReply{http.StatusOK, brief, false})},
		{"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n", [2]routeReply{
			{http.StatusOK, `{"status":"ok","replicas":1,"healthy":1,"idle":1,"queued":0,"in_flight":0}` + "\n", false},
			{http.StatusOK, `{"status":"ok","backends":1,"routable":1,"fleet":[{"name":"BACKEND","breaker":"closed"}]}` + "\n", false},
		}},
		{"GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n", both(routeReply{http.StatusOK, "{\n  \"requests_total\": ", true})},
		{"POST /admin/reload HTTP/1.1\r\nHost: a\r\n\r\n", [2]routeReply{
			{http.StatusConflict, "serve: no reload source configured\n", false},
			{http.StatusBadGateway, `{"fleet_generation":0,"reloaded":0,"backends":[{"backend":"BACKEND",` +
				`"error":"backend BACKEND: reload status 409: serve: no reload source configured"}]}` + "\n", false},
		}},
		{"GET /nope HTTP/1.1\r\nHost: a\r\n\r\n", both(routeReply{http.StatusNotFound, notFound, false})},
		{"POST //brief HTTP/1.1\r\nHost: a\r\n" + page, both(routeReply{http.StatusNotFound, notFound, false})},
		{"POST /brief/ HTTP/1.1\r\nHost: a\r\n" + page, both(routeReply{http.StatusNotFound, notFound, false})},
		{"POST /./brief HTTP/1.1\r\nHost: a\r\n" + page, both(routeReply{http.StatusNotFound, notFound, false})},
		{"HEAD /healthz HTTP/1.1\r\nHost: a\r\n\r\n", both(routeReply{http.StatusOK, "", false})},
		{"HEAD /brief HTTP/1.1\r\nHost: a\r\n\r\n", both(routeReply{http.StatusMethodNotAllowed, "", false})},
		{"CONNECT /brief HTTP/1.1\r\nHost: a\r\n\r\n", both(routeReply{http.StatusMethodNotAllowed, postOnly, false})},
		{"CONNECT books.example:443 HTTP/1.1\r\n\r\n", both(routeReply{http.StatusNotFound, notFound, false})},
		{"OPTIONS * HTTP/1.1\r\nHost: a\r\n\r\n", both(routeReply{http.StatusNotFound, notFound, false})},
	} {
		line, _, _ := strings.Cut(row.raw, "\r\n")
		for i, url := range []string{back.URL, gate.URL} {
			want := row.want[i]
			want.body = strings.ReplaceAll(want.body, "BACKEND", name)
			status, body := rawExchange(t, url, row.raw)
			if status != want.status || body != want.body && !(want.prefix && strings.HasPrefix(body, want.body)) {
				t.Errorf("%s to %s: %d %q, want %d %q", line, []string{"wbserve", "wbgate"}[i], status, body, want.status, want.body)
			}
		}
	}
}

// rawExchange sends raw on a connection of its own and reads one reply, as
// the answer to a HEAD if raw is one.
func rawExchange(t *testing.T, url, raw string) (int, string) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	method, _, _ := strings.Cut(raw, " ")
	resp, err := http.ReadResponse(bufio.NewReader(c), &http.Request{Method: method})
	if err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%q: body: %v", raw, err)
	}
	return resp.StatusCode, string(b)
}
