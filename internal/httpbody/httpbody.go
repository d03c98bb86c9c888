// Package httpbody reads one bounded HTTP message body into memory: the
// posted page in wbserve and wbgate, and a backend's reply in the gateway's
// upstream.
package httpbody

import (
	"errors"
	"io"
)

// ErrTooLarge reports a body longer than the caller's limit.
var ErrTooLarge = errors.New("body exceeds the size limit")

// presizeMax caps the up-front allocation. A declared length is the peer's
// claim: a client that declares megabytes and then sends nothing should not
// be handed them; past this size the buffer grows as the bytes arrive.
const presizeMax = 64 << 10

// Read reads r to EOF into one buffer. declared is the message's
// Content-Length (negative when undeclared). A declaration over limit is
// refused with ErrTooLarge before anything is read; one within it sizes the
// buffer up front (up to presizeMax), so a page is read into a single
// allocation instead of io.ReadAll's doubling from 512 bytes. Beyond that
// the declaration is a hint, not trusted: a body that runs past limit anyway
// is abandoned with ErrTooLarge, returned with the bytes read so far.
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
