package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/textproto"
	"strings"
)

// The HTTP/1.1 grammar of both directions: a request head, or a chunked
// body's trailer, as the server reads it, and a reply head as ReadReply
// reads it. Where the directions differ, each caller decides from what the
// scanner reports: a request joins an obs-fold line and keeps a key that
// holds a space (its server refuses it); a reply refuses the one and
// ignores the other.

// Why a head is refused, in either direction. statusOf maps each to the
// status net/http's server answers a request with.
var (
	errHeadTooLarge   = errors.New("head too large")                // 431
	errUnsupportedTE  = errors.New("unsupported transfer encoding") // 501
	errMalformedField = errors.New("malformed header field")        // the rest: 400
	errBadLength      = errors.New("bad or differing Content-Length values")
	errBadTrailer     = errors.New("trailer names a framing field")
	// errTEWithCL refuses a request framed two ways. net/http drops the
	// Content-Length and reads it chunked; a server that guesses is one half
	// of a request-smuggling pair, so this one refuses.
	errTEWithCL = errors.New("both Transfer-Encoding and Content-Length")
)

// scanHead looks in b, from the start of a line at from, for the blank line
// that ends a head. It returns the head's length through that line, or 0 and
// the start of the line not yet ended.
func scanHead(b []byte, from int) (n, next int) {
	for {
		i := bytes.IndexByte(b[from:], '\n')
		if i < 0 {
			return 0, from
		}
		if i == 0 || i == 1 && b[from] == '\r' {
			return from + i + 1, 0
		}
		from += i + 1
	}
}

// readHead reads a head from br through the blank line that ends it, and
// refuses one longer than max bytes (errHeadTooLarge). n is its length when a
// scan of br's buffer has already found the blank line, else 0. The head is
// consumed from br, and returned in place in br's buffer, valid until br is
// next read, unless it is longer than the buffer: then it is gathered across
// reads into bytes of its own.
func readHead(br *bufio.Reader, n, max int) ([]byte, error) {
	from := 0
	for n == 0 {
		b, _ := br.Peek(br.Buffered())
		if n, from = scanHead(b, from); n > 0 {
			break
		}
		if len(b) == br.Size() {
			return readLongHead(br, from, max)
		}
		if _, err := br.Peek(len(b) + 1); err != nil {
			return nil, shortHead(err, len(b))
		}
	}
	b, _ := br.Peek(n)
	br.Discard(n)
	return b, nil
}

// readLongHead is readHead past a full buffer, whose first from bytes hold
// whole lines.
func readLongHead(br *bufio.Reader, from, max int) ([]byte, error) {
	var head []byte
	for {
		b, _ := br.Peek(br.Buffered())
		if len(b) == 0 {
			if _, err := br.Peek(1); err != nil {
				return nil, shortHead(err, len(head))
			}
			continue
		}
		read := len(head)
		head = append(head, b...)
		n, next := scanHead(head, from)
		switch {
		case n > max, n == 0 && len(head) >= max:
			return nil, errHeadTooLarge
		case n > 0:
			br.Discard(n - read)
			return head[:n], nil
		}
		br.Discard(len(b))
		from = next
	}
}

// shortHead is the error of a head cut off after read bytes: an EOF with
// bytes read is unexpected.
func shortHead(err error, read int) error {
	if err == io.EOF && read > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// scanner reads a head line by line in place, as net/textproto does: a line
// ends at LF (CRLF counts as one), and the head at its first blank line. A
// request head or a trailer is a string, copied once out of the reader; a
// reply head is bytes still in the reader's buffer.
type scanner[T string | []byte] struct {
	rest T     // the head not yet read
	err  error // errMalformedField, once field has met a line that is no field
}

// line returns the next line without its LF or CRLF; ok is false at the
// blank line that ends the head.
func (s *scanner[T]) line() (line T, ok bool) {
	i := indexByte(s.rest, '\n')
	if i < 0 {
		i = len(s.rest)
	}
	line, s.rest = s.rest[:i], s.rest[min(i+1, len(s.rest)):]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, len(line) > 0
}

// indexByte is strings.IndexByte or bytes.IndexByte, whichever s is.
func indexByte[T string | []byte](s T, c byte) int {
	if b, ok := any(s).([]byte); ok {
		return bytes.IndexByte(b, c)
	}
	return strings.IndexByte(string(s), c)
}

// folded reports whether the next line begins with a space or tab: an
// obs-fold line, which net/textproto joins to the line before it.
func (s *scanner[T]) folded() bool {
	return len(s.rest) > 0 && (s.rest[0] == ' ' || s.rest[0] == '\t')
}

// field reads the next line as a header field, checked as net/textproto
// checks one: a key of token bytes and spaces (space reports one: such a key
// is kept as it is), a colon, and a value, trimmed of spaces and tabs, that
// holds no control byte but tab. An obs-fold line has no key; its value is
// the line, trimmed. ok is false at the blank line that ends the head, and at
// a line that is no field (s.err).
func (s *scanner[T]) field() (key, value T, space, ok bool) {
	fold := s.folded()
	line, ok := s.line()
	if !ok {
		return key, value, false, false
	}
	if fold {
		value = trimOWS(line)
	} else {
		i := 0
		for ; i < len(line) && line[i] != ':'; i++ {
			if line[i] == ' ' {
				space = true
			} else if !tokenByte[line[i]] {
				break
			}
		}
		if i == 0 || i == len(line) || line[i] != ':' {
			s.err = errMalformedField
			return key, value, false, false
		}
		key, value = line[:i], trimOWS(line[i+1:])
	}
	for i := 0; i < len(value); i++ {
		if c := value[i]; c < ' ' && c != '\t' || c == 0x7f {
			s.err = errMalformedField
			return key, value, false, false
		}
	}
	return key, value, space, true
}

// fields reads a request's header block, or a chunked body's trailer, as
// net/textproto's ReadMIMEHeader reads one: an obs-fold line is joined to
// the field before it (and may not begin the block), and a key is
// canonicalized unless it holds a space.
type fields struct{ scanner[string] }

// next returns the next field's key, canonicalized, its value, and whether
// its key holds a space; ok is false at the end of the block or at a line
// the block is refused for (f.err).
func (f *fields) next() (key, value string, space, ok bool) {
	if f.folded() {
		f.err = errMalformedField // it has no field before it to continue
		return "", "", false, false
	}
	if key, value, space, ok = f.field(); !ok {
		return "", "", false, false
	}
	if f.folded() {
		// Each obs-fold line adds a space and its line, trimmed: a blank
		// last one leaves the value ending in a space, as in net/textproto.
		b := []byte(value)
		for f.folded() {
			_, more, _, ok := f.field()
			if !ok {
				return "", "", false, false
			}
			b = append(append(b, ' '), more...)
		}
		value = strings.TrimLeft(string(b), " ")
	}
	if !space && !canonical(key) {
		key = textproto.CanonicalMIMEHeaderKey(key)
	}
	return key, value, space, true
}

// canonical reports whether key, a token, is in net/textproto's canonical
// form: each letter upper case after a hyphen or at the start, lower case
// elsewhere.
func canonical(key string) bool {
	upper := true
	for i := 0; i < len(key); i++ {
		if c := key[i]; upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			return false
		}
		upper = key[i] == '-'
	}
	return true
}

// frame is what a head's fields say about its body and its connection,
// gathered field by field in either direction.
type frame[T string | []byte] struct {
	cl, clLen        int64 // the first Content-Length, and the length of its value
	clCount          int
	clBad            bool // a Content-Length is not a length, or differs from the first
	teCount          int
	teChunked        bool // the first Transfer-Encoding is chunked
	close, keepAlive bool // a Connection field lists close, or keep-alive
	badTrailer       bool // a Trailer field names a framing field
}

// add takes what framing needs from one field. Keys match without regard to
// ASCII case, so a key that holds a space matches none.
func (f *frame[T]) add(key, value T) {
	switch {
	case foldEqual(key, "content-length"):
		// Two lengths of digits are the same value only if their bytes
		// are: "02" and "2" differ, as net/http compares them.
		v := trimOWS(value) // an obs-fold may leave a space after it
		n, ok := parseLength(v)
		switch {
		case !ok || f.clCount > 0 && (n != f.cl || int64(len(v)) != f.clLen):
			f.clBad = true
		case f.clCount == 0:
			f.cl, f.clLen = n, int64(len(v))
		}
		f.clCount++
	case foldEqual(key, "transfer-encoding"):
		if f.teCount++; f.teCount == 1 {
			f.teChunked = foldEqual(value, "chunked")
		}
	case foldEqual(key, "connection"):
		f.close = f.close || listHas("close", value)
		f.keepAlive = f.keepAlive || listHas("keep-alive", value)
	case foldEqual(key, "trailer"):
		f.badTrailer = f.badTrailer || listHas("transfer-encoding", value) || listHas("trailer", value) || listHas("content-length", value)
	}
}

// framing is net/http's readTransfer over the fields gathered: the body's
// length (-1 when it is chunked, or when a reply runs to the close), whether
// it is chunked, and whether the connection closes after the message.
// Transfer-Encoding is ignored below HTTP/1.1, HTTP/0.0 counting as 1.1. A
// request (reply false) is framed as a reply with status 200 is, but for two
// rules: Transfer-Encoding beside Content-Length refuses it (errTEWithCL)
// where a reply's chunked coding wins, and it has no body when it declares
// none.
func (f *frame[T]) framing(major, minor, status int, reply bool) (n int64, chunked, close bool, err error) {
	if f.teCount > 0 && (major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0) {
		if f.teCount != 1 || !f.teChunked {
			return 0, false, false, errUnsupportedTE
		}
		chunked = true
	}
	switch {
	case f.clBad:
		return 0, false, false, errBadLength
	case chunked && f.clCount > 0 && !reply:
		return 0, false, false, errTEWithCL
	case chunked && f.badTrailer:
		return 0, false, false, errBadTrailer
	}
	n = f.cl
	if reply && f.clCount == 0 {
		n = -1
	}
	close = major < 1 || f.close || major == 1 && minor == 0 && !f.keepAlive
	switch {
	case !bodyAllowed(status):
		return 0, false, close, nil
	case chunked:
		return -1, true, close, nil
	}
	return n, false, close || n < 0, nil
}

// parseLength parses a Content-Length value as strconv's ParseUint(v, 10, 63)
// does: digits only, below 2^63.
func parseLength[T string | []byte](v T) (n int64, ok bool) {
	for i := 0; i < len(v); i++ {
		d := int64(v[i] - '0')
		if !isDigit(v[i]) || n > (1<<63-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, len(v) > 0
}

// listHas reports whether any of values, each a comma-separated field
// value, lists token, as net/http's header token match does: each element
// trimmed of spaces and tabs, compared case-insensitively in ASCII only.
func listHas[T string | []byte](token string, values ...T) bool {
	for _, v := range values {
		start := 0
		for i := 0; i <= len(v); i++ {
			if i < len(v) && v[i] != ',' {
				continue
			}
			if foldEqual(trimOWS(v[start:i]), token) {
				return true
			}
			start = i + 1
		}
	}
	return false
}

// foldEqual reports whether s equals lower, a lower-case ASCII string,
// ignoring ASCII case only.
func foldEqual[T string | []byte](s T, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// trimOWS trims leading and trailing spaces and tabs.
func trimOWS[T string | []byte](s T) T {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
