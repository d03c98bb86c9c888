// Package httpwire is the inbound HTTP/1.1 server of both tiers: wbserve and
// wbgate run their http.Handlers on it in place of net/http's server.
//
// One goroutine serves each connection. It parses a request head from the
// connection's bufio.Reader into an http.Request, calls the handler
// unchanged, and sends the handler's buffered response in one write framed
// by Content-Length. What it accepts and what it refuses follow net/http's
// server, row by row (TestWireBehaviour drives both through one table):
//
//   - HTTP/1.1 and HTTP/1.0, keep-alive, pipelined requests answered in
//     order, Connection: close honoured in both directions;
//   - request bodies framed by Content-Length (digits only; repeated values
//     must agree), by chunked coding (trailers consumed), or absent; any
//     other transfer coding is a 501, and Transfer-Encoding beside
//     Content-Length a 400; Expect: 100-continue is answered on the first
//     body read;
//   - a head over 64 KiB is a 431; an HTTP/1.1 request needs exactly
//     one Host; header names must be tokens and values free of control
//     bytes; the request-target must pass url.ParseRequestURI — otherwise a
//     400;
//   - every response carries Date and Content-Length (none for 1xx, 204 or
//     304, and no body for those or for HEAD), header keys sorted, and a
//     sniffed Content-Type when the handler set none; a request body left
//     unread past 256 KiB closes the connection;
//   - a handler panic is logged (http.ErrAbortHandler is not) and closes its
//     connection; the server keeps serving.
//
// The one difference is when a request starts watching for its client to
// hang up. net/http starts a background read on every request; here it
// starts when the handler first asks the request's context for Done —
// directly, or through context.WithTimeout, context.AfterFunc or a select —
// and once the body has been read to its end. A cache hit that never waits
// on its context never pays for the watch; a relay or a queued briefing
// always waits on it and is canceled as before.
package httpwire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/textproto"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The connection limits both tiers serve with. They bound clients that never
// finish, or never start, a request: without them a slow-header client pins a
// connection outside every counted outcome. Bodies are bounded by each tier's
// -maxbody and -timeout.
const (
	readHeaderTimeout = 5 * time.Second // a request's first byte to the end of its head
	idleTimeout       = 2 * time.Minute // how long a kept-alive connection waits for its next request
	maxHeaderBytes    = 64 << 10        // head size limit, a 431 past it
)

// DefaultMaxBodyBytes is both tiers' default request body ceiling: wbgate
// refuses an oversized page itself rather than ship it to a backend that
// would refuse it anyway.
const DefaultMaxBodyBytes = 4 << 20

// RequestIDHeader carries a briefing's request ID: wbgate honours or mints
// one and sends it on every attempt, and wbserve logs it.
const RequestIDHeader = "X-Request-Id"

// maxPostHandlerReadBytes is how much of a body its handler left unread the
// server discards to keep the connection; past it, the connection closes.
const maxPostHandlerReadBytes = 256 << 10

// lingerTimeout bounds how long a refused connection is drained after its
// reply, so the client reads the reply instead of a reset.
const lingerTimeout = 500 * time.Millisecond

// Server serves one http.Handler over HTTP/1.1 connections. Set Handler
// before Serve.
type Server struct {
	Handler http.Handler

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[*conn]struct{}
	closing   atomic.Bool
}

// Serve accepts connections on ln and serves each on its own goroutine
// until Shutdown, when it returns http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.listeners = append(s.listeners, ln)
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.mu.Unlock()

	var backoff time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			// Out of descriptors and the like: wait and retry, as net/http does.
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := s.newConn(rwc)
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			rwc.Close()
			return http.ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, closes idle connections, and waits for the
// active ones to finish their request and close, or for ctx to end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.mu.Unlock()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.closeIdle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// closeIdle closes every connection waiting for its next request and
// reports whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.idle.Load() {
			c.rwc.Close()
		}
	}
	return len(s.conns) == 0
}

// conn is one client connection and everything its requests reuse.
type conn struct {
	srv    *Server
	rwc    net.Conn
	remote string
	cr     connReader // under br: the head's byte limit and the disconnect watch
	br     *bufio.Reader
	tp     textproto.Reader
	body   body
	w      response
	idle   atomic.Bool // waiting for a request's first byte: Shutdown may close it

	deadline bool // a read deadline is armed for the head under way
}

func (s *Server) newConn(rwc net.Conn) *conn {
	c := &conn{srv: s, rwc: rwc, remote: rwc.RemoteAddr().String()}
	c.cr.c = c
	c.cr.remain = noLimit
	c.br = bufio.NewReaderSize(&c.cr, 4<<10)
	c.tp.R = c.br
	c.body.c = c
	c.w.c = c
	c.w.header = make(http.Header)
	c.idle.Store(true)
	return c
}

// serve runs the connection's requests in order until one of them, the
// client or the server ends it.
func (c *conn) serve() {
	defer func() {
		c.rwc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	for c.next() {
		req, err := c.readRequest()
		if err != nil {
			c.refuse(err)
			return
		}
		if !c.handle(req) {
			return
		}
	}
}

// next waits for the first byte of the connection's next request and arms
// the head deadline; false means the connection is done (idle timeout,
// client gone, shutdown). A head already buffered whole — the common case,
// and every pipelined one — needs neither deadline.
func (c *conn) next() bool {
	c.cr.remain = maxHeaderBytes + 4<<10
	deadline := false
	if c.br.Buffered() == 0 {
		c.idle.Store(true)
		if c.srv.closing.Load() {
			return false
		}
		c.rwc.SetReadDeadline(time.Now().Add(idleTimeout))
		deadline = true
		if _, err := c.br.Peek(1); err != nil {
			return false
		}
		c.idle.Store(false)
	}
	if !headBuffered(c.br) {
		c.rwc.SetReadDeadline(time.Now().Add(readHeaderTimeout))
		deadline = true
	}
	c.deadline = deadline
	return true
}

// handle runs one parsed request through the handler and writes its
// response, reporting whether the connection stays open for the next.
func (c *conn) handle(req *http.Request) bool {
	ok := c.runHandler(req)
	req.Context().(*reqCtx).end()
	c.cr.endRequest()
	if !ok {
		return false
	}

	keep := !req.Close && !c.srv.closing.Load() && !hasToken(c.w.header["Connection"], "close")
	if keep && !c.body.settle() {
		keep = false
	}
	if err := c.w.send(req, keep); err != nil {
		return false
	}
	if !keep && !c.body.done {
		c.linger()
	}
	return keep
}

// runHandler calls the handler, recovering a panic: false means one was
// recovered, and the connection closes without a response.
func (c *conn) runHandler(req *http.Request) (ok bool) {
	defer func() {
		if err := recover(); err != nil {
			ok = false
			if err != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("httpwire: panic serving %s: %v\n%s", c.remote, err, buf)
			}
		}
	}()
	c.srv.Handler.ServeHTTP(&c.w, req)
	return true
}

// refuse answers a request whose head the server will not pass to the
// handler, the way net/http's server does, and ends the connection. A read
// that failed on the network gets no answer.
func (c *conn) refuse(err error) {
	var status int
	var msg string
	switch {
	case err == errHeadTooLarge:
		status, msg = http.StatusRequestHeaderFieldsTooLarge, "431 Request Header Fields Too Large"
	case isNetReadError(err):
		return
	case err == errMissingHost, err == errBadHost, err == errBadHeaderName:
		status, msg = http.StatusBadRequest, "400 Bad Request: "+err.Error()
	case errors.Is(err, errUnsupportedTE):
		status, msg = http.StatusNotImplemented, "Unsupported transfer encoding"
	case errors.Is(err, errVersion):
		status, msg = http.StatusHTTPVersionNotSupported, "505 HTTP Version Not Supported: unsupported protocol version"
	default:
		status, msg = http.StatusBadRequest, "400 Bad Request"
	}
	c.w.refusal(status, msg)
	c.linger()
}

// isNetReadError reports a head read that failed on the network — the
// client left or went quiet — which net/http leaves unanswered.
func isNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

// linger half-closes a connection the server is done with while the client
// may still be sending, and drains what arrives for a moment, so the reply
// is read rather than lost to a reset.
func (c *conn) linger() {
	if tc, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		tc.CloseWrite()
	}
	c.rwc.SetReadDeadline(time.Now().Add(lingerTimeout))
	buf := make([]byte, 4<<10)
	for {
		if _, err := c.rwc.Read(buf); err != nil {
			return
		}
	}
}
