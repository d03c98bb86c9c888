package gateway

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webbrief/internal/httpbody"
)

// idleConnTimeout retires a quiet upstream connection. Below wbserve's idle
// timeout (2 min), so the gateway drops it before the backend closes it
// under a relay.
const idleConnTimeout = 90 * time.Second

// upstream is the gateway's side of one backend's connections: a stack of
// idle keep-alive connections and the one exchange function every relay,
// health probe and reload drive goes through. It owns the connections and
// the request head; the response grammar (Content-Length, chunked,
// Connection: close) stays net/http's, via http.ReadResponse.
//
// An exchange runs synchronously on its caller's goroutine — no per-
// connection reader or writer goroutine, no channel hand-off. In-flight
// connections are bounded by the backend's slots, so the idle stack never
// holds more than MaxConnsPerBackend (plus the prober's one).
type upstream struct {
	addr string // host:port: dial target and Host header

	mu     sync.Mutex
	idle   []*upstreamConn // most recently used last, so the warmest is taken first
	closed bool            // set by close: connections are no longer kept

	// dials + reused counts every exchange once, plus once more per stale
	// replay: an exchange either takes an idle connection or dials, and a
	// replay dials again.
	dials        atomic.Int64 // dial attempts, failed ones included
	reused       atomic.Int64 // exchanges started on an idle connection
	staleReplays atomic.Int64 // reused connection found dead before any reply byte; redialed and replayed
}

// upstreamConn is one keep-alive connection and the buffers its exchanges
// reuse.
type upstreamConn struct {
	c         net.Conn
	br        *bufio.Reader
	head      []byte      // request head, rebuilt in place per exchange
	iov       [2][]byte   // backing array for bufs
	bufs      net.Buffers // head + body, sent as one writev
	idleSince time.Time
}

// request is one exchange's outbound half. query and contentType are copied
// into the head verbatim: the caller vouches they passed headSafe.
type request struct {
	method, path, query, contentType string
	body                             []byte
	limit                            int64 // most reply bytes the caller will buffer
}

// reply is a backend's buffered answer to one exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// errNoReply marks an exchange that failed before the first byte of a
// reply: on a reused connection that is the signature of a keep-alive
// connection the backend closed while it sat idle.
var errNoReply = errors.New("connection failed before any reply")

// exchange sends one request and buffers the reply, which may be at most
// req.limit bytes (a longer one fails with httpbody.ErrTooLarge). ctx bounds it:
// its deadline becomes the connection's, and cancellation interrupts the I/O
// in progress. If a reused connection turns out to be dead before any reply
// byte arrived, the request is replayed once on a fresh one, as net/http's
// own transport replays a replayable request; briefings are pure, so a
// backend that did see the first copy loses nothing but time.
func (u *upstream) exchange(ctx context.Context, req request) (reply, error) {
	uc, reused := u.acquire()
	if uc == nil {
		var err error
		if uc, err = u.dial(ctx); err != nil {
			return reply{}, err
		}
	}
	rep, err := u.exchangeOn(ctx, uc, req)
	if reused && errors.Is(err, errNoReply) && ctx.Err() == nil {
		u.staleReplays.Add(1)
		if uc, err = u.dial(ctx); err != nil {
			return reply{}, err
		}
		rep, err = u.exchangeOn(ctx, uc, req)
	}
	return rep, err
}

// exchangeOn runs one exchange on uc and settles the connection: back on
// the idle stack only if the reply was read to its end with nothing left
// over, the backend did not ask to close, and ctx never interrupted it;
// closed otherwise.
func (u *upstream) exchangeOn(ctx context.Context, uc *upstreamConn, req request) (reply, error) {
	deadline, _ := ctx.Deadline() // zero clears a previous exchange's
	uc.c.SetDeadline(deadline)
	// Cancellation has no channel to select on here: it expires the
	// connection's deadline instead, failing the blocked read or write.
	stop := context.AfterFunc(ctx, func() { uc.c.SetDeadline(time.Unix(1, 0)) })

	rep, keep, err := uc.roundTrip(u.addr, req)
	if !stop() || err != nil || !keep {
		uc.c.Close()
	} else {
		u.release(uc)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// Every deadline on this connection is ctx's own (its deadline or its
		// cancellation), so ctx is done or a timer tick from it: let it name
		// the failure, and callers tell a timeout from a disconnect by ctx.Err.
		<-ctx.Done()
		return reply{}, ctx.Err()
	}
	return rep, err
}

// roundTrip writes the request and reads the reply. keep reports whether
// the connection is reusable afterwards.
func (uc *upstreamConn) roundTrip(host string, req request) (rep reply, keep bool, err error) {
	uc.head = appendRequestHead(uc.head[:0], host, req)
	if len(req.body) == 0 {
		_, err = uc.c.Write(uc.head)
	} else {
		uc.iov = [2][]byte{uc.head, req.body}
		uc.bufs = uc.iov[:]
		_, err = uc.bufs.WriteTo(uc.c)
		uc.iov[1] = nil // don't pin the page past its request
	}
	if err != nil {
		return reply{}, false, fmt.Errorf("%w: %w", errNoReply, err)
	}
	if _, err := uc.br.Peek(1); err != nil {
		return reply{}, false, fmt.Errorf("%w: %w", errNoReply, err)
	}
	resp, err := http.ReadResponse(uc.br, nil)
	if err != nil {
		return reply{}, false, err
	}
	if resp.StatusCode < 200 {
		return reply{}, false, fmt.Errorf("unexpected interim response %d", resp.StatusCode)
	}
	out, err := httpbody.Read(resp.Body, resp.ContentLength, req.limit)
	if err != nil {
		return reply{}, false, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: out}, !resp.Close && uc.br.Buffered() == 0, nil
}

// appendRequestHead appends req's HTTP/1.1 request head to dst.
func appendRequestHead(dst []byte, host string, req request) []byte {
	dst = append(dst, req.method...)
	dst = append(dst, ' ')
	dst = append(dst, req.path...)
	if req.query != "" {
		dst = append(dst, '?')
		dst = append(dst, req.query...)
	}
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	if req.contentType != "" {
		dst = append(dst, "\r\nContent-Type: "...)
		dst = append(dst, req.contentType...)
	}
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(req.body)), 10)
	return append(dst, "\r\n\r\n"...)
}

// headSafe reports whether s can be copied into a request head without
// ending a line or a token early: no control byte, and no space unless
// spaces is set (header values may hold them, a request target may not).
// net/http's server already refuses such bytes in a request line or header
// value, so this only ever fails for a handler driven in-process.
func headSafe(s string, spaces bool) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == '\t':
			if !spaces {
				return false
			}
		case c < ' ' || c == 0x7f:
			return false
		}
	}
	return true
}

// acquire pops the most recently used idle connection; reused is false
// (and uc nil) when there is none.
func (u *upstream) acquire() (uc *upstreamConn, reused bool) {
	u.mu.Lock()
	if n := len(u.idle); n > 0 {
		uc, u.idle[n-1] = u.idle[n-1], nil
		u.idle = u.idle[:n-1]
	}
	u.mu.Unlock()
	if uc == nil {
		return nil, false
	}
	u.reused.Add(1)
	return uc, true
}

// release puts a reusable connection on the idle stack, or closes it if
// the upstream has shut down meanwhile.
func (u *upstream) release(uc *upstreamConn) {
	uc.idleSince = time.Now()
	u.mu.Lock()
	closed := u.closed
	if !closed {
		u.idle = append(u.idle, uc)
	}
	u.mu.Unlock()
	if closed {
		uc.c.Close()
	}
}

// dial opens a fresh connection under ctx.
func (u *upstream) dial(ctx context.Context) (*upstreamConn, error) {
	u.dials.Add(1)
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", u.addr)
	if err != nil {
		return nil, err
	}
	return &upstreamConn{c: c, br: bufio.NewReader(c)}, nil
}

// reap closes connections idle since before now-idleConnTimeout. The stack
// is ordered by release time, so they are a prefix.
func (u *upstream) reap(now time.Time) {
	cutoff := now.Add(-idleConnTimeout)
	u.mu.Lock()
	n := 0
	for n < len(u.idle) && u.idle[n].idleSince.Before(cutoff) {
		n++
	}
	stale := u.idle[:n]
	if n > 0 {
		u.idle = append([]*upstreamConn(nil), u.idle[n:]...)
	}
	u.mu.Unlock()
	for _, uc := range stale {
		uc.c.Close()
	}
}

// close closes every idle connection and stops keeping new ones: in-flight
// exchanges finish and close theirs.
func (u *upstream) close() {
	u.mu.Lock()
	u.closed = true
	idle := u.idle
	u.idle = nil
	u.mu.Unlock()
	for _, uc := range idle {
		uc.c.Close()
	}
}

// idleConns is the idle stack's current depth.
func (u *upstream) idleConns() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.idle)
}
