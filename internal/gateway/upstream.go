package gateway

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webbrief/internal/httpwire"
)

// idleConnTimeout retires a quiet upstream connection. Below wbserve's idle
// timeout (2 min), so the gateway drops it before the backend closes it
// under a relay.
const idleConnTimeout = 90 * time.Second

// upstream is the gateway's side of one backend's connections: a stack of
// idle keep-alive connections and the one exchange function every relay,
// health probe and reload drive goes through. It owns the connections and
// the request head; httpwire.ReadReply reads the reply, framed as net/http
// frames it (Content-Length, chunked, Connection: close), and keeps only the
// two fields a relay forwards.
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

// request is one exchange's outbound half. query, contentType and id are
// copied into the head verbatim: the caller vouches they passed headSafe.
type request struct {
	method, path, query, contentType string
	id                               string // the briefing's request ID; empty on probes and reloads
	body                             []byte
	limit                            int64 // most reply bytes the caller will buffer
}

// errNoReply marks an exchange that failed before the first byte of a
// reply: on a reused connection that is the signature of a keep-alive
// connection the backend closed while it sat idle.
var errNoReply = errors.New("connection failed before any reply")

// replyGrace is how long a dial, or an exchange's wait for the first reply
// byte, runs before it starts watching ctx. A cache hit's whole hop takes
// about 0.17 ms, so a hit answers well inside it and never pays for the watch
// (on a relay, asking the request's context for Done starts httpwire's
// background read). It is also the longest a client's hang-up goes unnoticed
// by a dial or by a wait for a reply.
const replyGrace = time.Millisecond

// aLongTimeAgo is a deadline that fails a blocked read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// exchange sends one request and buffers the reply, which may be at most
// req.limit bytes (a longer one fails with httpwire.ErrTooLarge). deadline
// (zero for none) bounds it, dial included, and fails it with
// context.DeadlineExceeded. ctx's cancellation interrupts a dial or a wait
// for the reply once that has lasted replyGrace, and fails it with ctx's
// error. If a reused connection turns out to be dead before any reply byte
// arrived and ctx is not done, the request is replayed once on a fresh one,
// as net/http's own transport replays a replayable request; briefings are
// pure, so a backend that did see the first copy loses nothing but time.
// (ctx.Err does not start httpwire's disconnect watch; only Done does.)
func (u *upstream) exchange(ctx context.Context, deadline time.Time, req request) (httpwire.Reply, error) {
	uc, reused := u.acquire()
	if uc == nil {
		var err error
		if uc, err = u.dial(ctx, deadline); err != nil {
			return httpwire.Reply{}, err
		}
	}
	rep, err := u.exchangeOn(ctx, deadline, uc, req)
	if reused && errors.Is(err, errNoReply) && ctx.Err() == nil {
		u.staleReplays.Add(1)
		if uc, err = u.dial(ctx, deadline); err != nil {
			return httpwire.Reply{}, err
		}
		rep, err = u.exchangeOn(ctx, deadline, uc, req)
	}
	return rep, err
}

// exchangeOn runs one exchange on uc and settles the connection: back on
// the idle stack only if the reply was read to its end with nothing left
// over, the backend did not ask to close, and ctx never interrupted it;
// closed otherwise.
func (u *upstream) exchangeOn(ctx context.Context, deadline time.Time, uc *upstreamConn, req request) (httpwire.Reply, error) {
	uc.c.SetDeadline(deadline) // zero clears a previous exchange's
	var rep httpwire.Reply
	err := uc.send(u.addr, req)
	var stop func() bool
	if err == nil {
		stop, err = uc.awaitReply(ctx, deadline)
	}
	if err == nil {
		rep, err = httpwire.ReadReply(uc.br, req.limit)
	}
	canceled := stop != nil && !stop()
	if err != nil || canceled || rep.Close || uc.br.Buffered() != 0 {
		uc.c.Close()
	} else {
		u.release(uc)
	}
	switch {
	case !errors.Is(err, os.ErrDeadlineExceeded):
		return rep, err
	case canceled:
		return httpwire.Reply{}, ctx.Err()
	}
	return httpwire.Reply{}, context.DeadlineExceeded
}

// send writes the request head and body in one write.
func (uc *upstreamConn) send(host string, req request) error {
	uc.head = appendRequestHead(uc.head[:0], host, req)
	var err error
	if len(req.body) == 0 {
		_, err = uc.c.Write(uc.head)
	} else {
		uc.iov = [2][]byte{uc.head, req.body}
		uc.bufs = uc.iov[:]
		_, err = uc.bufs.WriteTo(uc.c)
		uc.iov[1] = nil // don't pin the page past its request
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errNoReply, err)
	}
	return nil
}

// awaitReply waits for the reply's first byte: for replyGrace without
// watching ctx, then, if the deadline is further off, under the deadline
// with ctx's cancellation expiring the connection's deadline (cancellation
// has no channel to select on here; it fails the blocked read instead). stop
// unregisters that watch; it is nil when none was started.
func (uc *upstreamConn) awaitReply(ctx context.Context, deadline time.Time) (stop func() bool, err error) {
	if grace := time.Now().Add(replyGrace); deadline.IsZero() || grace.Before(deadline) {
		uc.c.SetReadDeadline(grace)
		_, err = uc.br.Peek(1)
		// The rest of the reply reads under the deadline. It is set before
		// the watch starts, so a cancellation that fires at once is not
		// overwritten.
		uc.c.SetReadDeadline(deadline)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, noReply(err)
		}
		stop = context.AfterFunc(ctx, func() { uc.c.SetDeadline(aLongTimeAgo) })
	}
	_, err = uc.br.Peek(1)
	return stop, noReply(err)
}

// noReply marks err, if any, as a failure before the first reply byte.
func noReply(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errNoReply, err)
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
	if req.id != "" {
		dst = append(dst, "\r\n"+httpwire.RequestIDHeader+": "...)
		dst = append(dst, req.id...)
	}
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(req.body)), 10)
	return append(dst, "\r\n\r\n"...)
}

// headSafe reports whether s can be copied into a request head without
// ending a line or a token early: no control byte, and no space unless
// spaces is set (header values may hold them, a request target may not).
// The inbound server's head parser (internal/httpwire) already refuses such
// bytes in the request target and in a header value, as net/http does,
// so this only ever fails for a handler driven in-process.
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

// dial opens a fresh connection under deadline. Like awaitReply, it watches
// ctx only once the dial has lasted replyGrace, so a relay whose dial ends
// inside the grace (a loopback dial takes a fraction of it) does not start
// httpwire's disconnect watch; past it, ctx's cancellation aborts the dial.
func (u *upstream) dial(ctx context.Context, deadline time.Time) (*upstreamConn, error) {
	u.dials.Add(1)
	dctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	grace := time.AfterFunc(replyGrace, func() {
		if dctx.Err() == nil {
			stop := context.AfterFunc(ctx, cancel)
			<-dctx.Done() // the dial has ended
			stop()
		}
	})
	defer grace.Stop()
	d := net.Dialer{Deadline: deadline}
	c, err := d.DialContext(dctx, "tcp", u.addr)
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
