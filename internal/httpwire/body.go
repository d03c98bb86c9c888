package httpwire

import (
	"errors"
	"io"
	"net/http"
	"net/http/httputil"
)

// ErrTooLarge reports a body longer than the caller's limit.
var ErrTooLarge = errors.New("body exceeds the size limit")

// presizeMax caps the up-front allocation. A declared length is the peer's
// claim: a client that declares megabytes and then sends nothing should not
// be handed them; past this size the buffer grows as the bytes arrive.
const presizeMax = 64 << 10

// Read reads one bounded message body to EOF into one buffer: the posted
// page in wbserve and wbgate, and a backend's reply in the gateway's
// upstream. declared is the message's Content-Length (negative when
// undeclared). A declaration over limit is refused with ErrTooLarge before
// anything is read; one within it sizes the buffer up front (up to
// presizeMax), so a page is read into a single allocation instead of
// io.ReadAll's doubling from 512 bytes. Beyond that the declaration is a
// hint, not trusted: a body that runs past limit anyway is abandoned with
// ErrTooLarge, returned with the bytes read so far.
func Read(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, ErrTooLarge
	}
	size := int64(512)
	if declared >= 0 {
		// One spare byte: the read that reports EOF needs room to land in,
		// or the loop below would grow (and copy) a buffer that is already full.
		size = min(declared+1, presizeMax)
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if int64(len(b)) > limit {
			return b, ErrTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// body is a request's body as its handler reads it: framed by its
// Content-Length or by chunked coding, and never read past its end. One
// lives in each conn and is reset per request; its end is the moment a
// disconnect watch may start reading the connection.
type body struct {
	c       *conn
	remain  int64     // Content-Length bytes not yet read
	chunked io.Reader // the chunked decoder; nil for Content-Length framing
	done    bool      // read to its end: the connection's next bytes are the next request's
	err     error     // a read error, repeated to every later read
	expect  bool      // Expect: 100-continue is owed on the first read
}

// reset frames req's body on the connection and installs it as req.Body.
func (b *body) reset(req *http.Request) {
	*b = body{c: b.c, remain: req.ContentLength}
	if req.ContentLength < 0 {
		b.remain = 0
		b.chunked = httputil.NewChunkedReader(b.c.br)
	} else if req.ContentLength == 0 {
		b.done = true
		req.Body = http.NoBody
		b.c.cr.setBodyDone()
		return
	}
	b.expect = req.ProtoAtLeast(1, 1) && hasToken(req.Header["Expect"], "100-continue")
	req.Body = b
}

func (b *body) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.EOF
	}
	if b.err != nil {
		return 0, b.err
	}
	if b.expect {
		b.expect = false
		if _, err := io.WriteString(b.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			b.err = err
			return 0, err
		}
	}
	if b.chunked != nil {
		n, err := b.chunked.Read(p)
		if err == io.EOF {
			if err = b.readTrailer(); err == nil {
				b.finish()
				return n, io.EOF
			}
		}
		if err != nil {
			b.err = err
		}
		return n, err
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.c.br.Read(p)
	b.remain -= int64(n)
	if b.remain == 0 {
		b.finish()
		return n, io.EOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		b.err = err
	}
	return n, err
}

// Close does nothing: whatever the handler leaves unread, the server
// discards or closes the connection over (settle).
func (b *body) Close() error { return nil }

// readTrailer consumes the trailer after a chunked body's last chunk, under
// the head's size limit, so the next request parses from its first byte.
func (b *body) readTrailer() error {
	if p, err := b.c.br.Peek(2); err == nil && string(p) == "\r\n" {
		b.c.br.Discard(2)
		return nil
	}
	b.c.cr.remain = maxHeaderBytes
	_, err := b.c.tp.ReadMIMEHeader()
	b.c.cr.remain = noLimit
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (b *body) finish() {
	b.done = true
	b.c.cr.setBodyDone()
}

// settle makes the connection ready for its next request once the handler
// is done, reporting whether it can be kept: an unread body is discarded if
// it ends within maxPostHandlerReadBytes, and a body whose 100-continue was
// never sent is not asked for now.
func (b *body) settle() bool {
	if b.done {
		return true
	}
	if b.expect {
		return false
	}
	io.CopyN(io.Discard, b, maxPostHandlerReadBytes+1)
	return b.done
}
