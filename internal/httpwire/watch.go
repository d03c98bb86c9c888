package httpwire

import (
	"context"
	"net"
	"sync"
	"time"
)

// reqCtx is a request's context. It carries no deadline and no values, and
// it costs nothing until a handler asks for Done: only then does it become a
// cancelable context and ask the connection to watch for the client hanging
// up. context.WithTimeout, WithCancel and AfterFunc all call Done on their
// parent first, and a select on it calls it too, so every handler that can
// observe a cancellation arms the watch; one that never waits on its context
// never pays for it. The context is canceled when the handler returns, as
// net/http's is.
type reqCtx struct {
	context.Context // context.Background: no deadline, and Value until armed
	c               *conn

	mu     sync.Mutex
	armed  context.Context // nil until the first Done
	cancel context.CancelFunc
	ended  bool // the handler has returned
}

func (x *reqCtx) Done() <-chan struct{} { return x.arm().Done() }

func (x *reqCtx) Err() error {
	x.mu.Lock()
	armed, ended := x.armed, x.ended
	x.mu.Unlock()
	switch {
	case armed != nil:
		return armed.Err()
	case ended:
		return context.Canceled
	}
	return nil
}

// Value answers for the armed context, so a child context finds its
// cancelable parent and registers with it directly instead of starting a
// goroutine to wait on it.
func (x *reqCtx) Value(key any) any {
	x.mu.Lock()
	armed := x.armed
	x.mu.Unlock()
	if armed == nil {
		return x.Context.Value(key)
	}
	return armed.Value(key)
}

// arm makes the context cancelable on first use and starts the watch.
func (x *reqCtx) arm() context.Context {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.armed == nil {
		x.armed, x.cancel = context.WithCancel(context.Background())
		if x.ended {
			x.cancel()
		} else {
			x.c.cr.watch(x.cancel)
		}
	}
	return x.armed
}

// end cancels the context once its handler has returned.
func (x *reqCtx) end() {
	x.mu.Lock()
	x.ended = true
	cancel := x.cancel
	x.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// aLongTimeAgo is a read deadline that fails a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// connReader is the connection as the bufio.Reader sees it. It runs the
// disconnect watch: net/http's
// background read of one byte, which fails when the client hangs up and
// cancels the request's context. The watch starts once both the handler has
// armed it and the body has been read to its end — before that, the body's
// own reads would race it for the connection's bytes.
type connReader struct {
	c *conn

	mu       sync.Mutex
	bodyDone bool          // this request's body has been read to its end
	cancel   func()        // the armed request context's cancel, once armed
	readDone chan struct{} // closed when the background read ends; nil if none ran
	aborted  bool          // endRequest interrupted it: its error is not a hang-up
	hasByte  bool          // it read a byte of the next request: byteBuf
	byteBuf  [1]byte
}

func (cr *connReader) Read(p []byte) (int, error) {
	// The background read has ended (endRequest waits for it) before
	// anything reads the connection again.
	if cr.hasByte {
		p[0] = cr.byteBuf[0]
		cr.hasByte = false
		return 1, nil
	}
	return cr.c.rwc.Read(p)
}

// watch arms the disconnect watch for the current request.
func (cr *connReader) watch(cancel func()) {
	cr.mu.Lock()
	cr.cancel = cancel
	cr.startLocked()
	cr.mu.Unlock()
}

// setBodyDone marks the request's body read to its end.
func (cr *connReader) setBodyDone() {
	cr.mu.Lock()
	cr.bodyDone = true
	cr.startLocked()
	cr.mu.Unlock()
}

// startLocked starts the background read once it is both armed and safe.
func (cr *connReader) startLocked() {
	if cr.cancel == nil || !cr.bodyDone || cr.readDone != nil || cr.hasByte {
		return
	}
	cr.readDone = make(chan struct{})
	// The background read ends when the client sends or hangs up, or when
	// its request ends (endRequest).
	go cr.backgroundRead(cr.cancel, cr.readDone)
}

func (cr *connReader) backgroundRead(cancel func(), done chan struct{}) {
	n, err := cr.c.rwc.Read(cr.byteBuf[:])
	cr.mu.Lock()
	if n == 1 {
		// A pipelined request's first byte: the client is still there.
		cr.hasByte = true
	}
	if ne, ok := err.(net.Error); ok && cr.aborted && ne.Timeout() {
		// endRequest's own deadline: not a hang-up.
	} else if err != nil {
		cancel()
	}
	cr.mu.Unlock()
	close(done)
}

// endRequest stops the watch, if it ran, and clears it for the next
// request: a read still blocked is failed by an expired deadline, and the
// connection is not read again until it has returned.
func (cr *connReader) endRequest() {
	cr.mu.Lock()
	cr.bodyDone, cr.cancel = false, nil
	done := cr.readDone
	cr.readDone = nil
	if done != nil {
		select {
		case <-done:
			done = nil // it ended on its own
		default:
			cr.aborted = true
			cr.c.rwc.SetReadDeadline(aLongTimeAgo)
		}
	}
	cr.mu.Unlock()
	if done != nil {
		<-done
		cr.aborted = false
		cr.c.rwc.SetReadDeadline(time.Time{})
	}
}
