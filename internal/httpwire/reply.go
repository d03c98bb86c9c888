package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
)

// Reply is a backend's reply as a relay reads it: its status, the two fields
// a relay forwards, and its body, buffered whole.
type Reply struct {
	Status      int
	ContentType string // the first Content-Type field's value, "" if none
	RetryAfter  string // the first Retry-After field's value, "" if none
	Body        []byte
	// Close: the connection ends with this reply. The backend said
	// Connection: close, or spoke HTTP/1.0 without keep-alive, or framed the
	// body by closing the connection.
	Close bool
}

// Why ReadReply refuses a reply. errObsFold, errLineTooLong,
// errReplyTooLarge and errReplyTrailer are the differences its doc comment
// declares: http.ReadResponse accepts those replies.
var (
	errInterim        = errors.New("unexpected interim response")
	errObsFold        = errors.New("reply header line continues the one before it")
	errLineTooLong    = errors.New("reply head line longer than the read buffer")
	errReplyTooLarge  = errors.New("reply head too large")
	errReplyTrailer   = errors.New("chunked reply does not end in CRLF after its last chunk")
	errMalformedReply = errors.New("malformed reply head")
)

// ReadReply reads one reply from br, its body at most limit bytes (a longer
// one fails with ErrTooLarge). It frames the reply exactly as
// http.ReadResponse(br, nil) followed by a read of the whole body does: the
// status line, Content-Length (repeated values must agree), chunked
// Transfer-Encoding (through httputil's chunked reader), a body read to the
// close, and keep-alive from Connection and the version. Of the other fields
// it keeps only Content-Type and Retry-After; it skips the rest in br's
// buffer, allocating nothing for them. FuzzReplyHead holds it to
// http.ReadResponse.
//
// It refuses a 1xx reply, which a relay never asked for. It also refuses
// these replies, which http.ReadResponse accepts:
//   - a header line that begins with a space or tab (obs-fold), which
//     net/textproto joins to the line before it;
//   - a head line longer than br's buffer, or a head over 64 KiB;
//   - a chunked body followed by trailer fields, or by a bare LF instead of
//     the CRLF that ends an empty trailer.
func ReadReply(br *bufio.Reader, limit int64) (Reply, error) {
	budget := maxHeaderBytes
	line, err := replyLine(br, &budget)
	if err != nil {
		return Reply{}, err
	}
	var rep Reply
	var major, minor int
	if rep.Status, major, minor, err = parseStatusLine(line); err != nil {
		return Reply{}, err
	}
	if rep.Status < 200 {
		return Reply{}, fmt.Errorf("%w %d", errInterim, rep.Status)
	}

	var f replyFields
	for {
		line, err := replyLine(br, &budget)
		if err != nil {
			return Reply{}, err
		}
		if len(line) == 0 {
			break
		}
		if err := f.add(line, &rep); err != nil {
			return Reply{}, err
		}
	}
	n, chunked, err := f.framing(major, minor, rep.Status)
	if err != nil {
		return Reply{}, err
	}
	rep.Close = major < 1 || f.connClose || major == 1 && minor == 0 && !f.connKeepAlive ||
		n < 0 && !chunked // a body that runs to the close

	switch {
	case !bodyAllowed(rep.Status):
	case chunked:
		if rep.Body, err = Read(httputil.NewChunkedReader(br), -1, limit); err != nil {
			return Reply{}, err
		}
		if p, _ := br.Peek(2); string(p) != "\r\n" {
			return Reply{}, errReplyTrailer
		}
		br.Discard(2)
	case n < 0:
		if rep.Body, err = Read(br, -1, limit); err != nil {
			return Reply{}, err
		}
	case n > limit:
		return Reply{}, ErrTooLarge
	default:
		if rep.Body, err = readN(br, n); err != nil {
			return Reply{}, err
		}
	}
	return rep, nil
}

// replyLine reads one head line and strips its LF or CRLF, as
// net/textproto does, out of br's buffer and charged to budget.
func replyLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	*budget -= len(line)
	switch {
	case err == bufio.ErrBufferFull:
		return nil, errLineTooLong
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	case *budget < 0:
		return nil, errReplyTooLarge
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseStatusLine parses "HTTP/x.y code reason" as http.ReadResponse does. A
// code of three bytes that are not all digits is refused here; ReadResponse
// reads a signed one ("+99", "-00") as a code under 200, which is refused
// as interim anyway.
func parseStatusLine(line []byte) (status, major, minor int, err error) {
	proto, rest, ok := bytes.Cut(line, []byte(" "))
	code, _, _ := bytes.Cut(bytes.TrimLeft(rest, " "), []byte(" "))
	if !ok || len(code) != 3 || !isDigit(code[0]) || !isDigit(code[1]) || !isDigit(code[2]) {
		return 0, 0, 0, fmt.Errorf("%w: status line %q", errMalformedReply, line)
	}
	status = int(code[0]-'0')*100 + int(code[1]-'0')*10 + int(code[2]-'0')
	if string(proto) == "HTTP/1.1" {
		return status, 1, 1, nil
	}
	if major, minor, ok = http.ParseHTTPVersion(string(proto)); !ok {
		return 0, 0, 0, fmt.Errorf("%w: version %q", errMalformedReply, proto)
	}
	return status, major, minor, nil
}

// replyFields is what a reply's header fields say about its framing and
// keep-alive, gathered field by field without keeping the fields.
type replyFields struct {
	cl             int64 // the Content-Length
	clLen          int   // the length of its value: two equal lengths of digits are equal values only if their bytes are
	clCount        int
	clBad          bool // a Content-Length value is not a length, or differs from the first
	teCount        int
	teChunked      bool // the first Transfer-Encoding value is "chunked"
	connClose      bool // a Connection value lists close
	connKeepAlive  bool // ... or keep-alive
	trailerBadKeys bool // a Trailer value names a framing field
}

// add checks one header line as net/textproto does and takes what the
// framing and rep need from it. A key with a space before the colon is
// accepted, as net/textproto accepts it, but names no field a relay reads.
func (f *replyFields) add(line []byte, rep *Reply) error {
	if line[0] == ' ' || line[0] == '\t' {
		return errObsFold
	}
	line = trimOWS(line)
	k, v, ok := bytes.Cut(line, []byte(":"))
	if !ok || len(k) == 0 {
		return fmt.Errorf("%w: header line %q", errMalformedReply, line)
	}
	canonical := true
	for _, c := range k {
		if c == ' ' {
			canonical = false
		} else if !tokenByte[c] {
			return fmt.Errorf("%w: header line %q", errMalformedReply, line)
		}
	}
	for _, c := range v {
		if c < ' ' && c != '\t' || c == 0x7f {
			return fmt.Errorf("%w: header line %q", errMalformedReply, line)
		}
	}
	if !canonical {
		return nil
	}
	v = trimOWS(v)
	switch {
	case foldEqual(k, "content-length"):
		n, ok := parseLength(v)
		switch {
		case !ok || f.clCount > 0 && (n != f.cl || len(v) != f.clLen):
			f.clBad = true
		case f.clCount == 0:
			f.cl, f.clLen = n, len(v)
		}
		f.clCount++
	case foldEqual(k, "transfer-encoding"):
		if f.teCount++; f.teCount == 1 {
			f.teChunked = foldEqual(v, "chunked")
		}
	case foldEqual(k, "connection"):
		f.connClose = f.connClose || listHas(v, "close")
		f.connKeepAlive = f.connKeepAlive || listHas(v, "keep-alive")
	case foldEqual(k, "trailer"):
		f.trailerBadKeys = f.trailerBadKeys || listHas(v, "transfer-encoding") || listHas(v, "trailer") || listHas(v, "content-length")
	case foldEqual(k, "content-type"):
		if rep.ContentType == "" {
			rep.ContentType = string(v)
		}
	case foldEqual(k, "retry-after"):
		if rep.RetryAfter == "" {
			rep.RetryAfter = string(v)
		}
	}
	return nil
}

// framing is net/http's readTransfer for a reply to a GET: the body's
// length (-1 when chunked or read to the close) and whether it is chunked.
// Transfer-Encoding is ignored below HTTP/1.1, and HTTP/0.0 frames as 1.1.
func (f *replyFields) framing(major, minor, status int) (n int64, chunked bool, err error) {
	if f.teCount > 0 && (major == 0 && minor == 0 || major > 1 || major == 1 && minor >= 1) {
		if f.teCount != 1 || !f.teChunked {
			return 0, false, fmt.Errorf("%w: unsupported transfer encoding", errMalformedReply)
		}
		chunked = true
	}
	n = -1
	if f.clCount > 0 {
		if f.clBad {
			return 0, false, fmt.Errorf("%w: bad or differing Content-Length values", errMalformedReply)
		}
		n = f.cl
	}
	if chunked && f.trailerBadKeys {
		return 0, false, fmt.Errorf("%w: bad trailer key", errMalformedReply)
	}
	switch {
	case !bodyAllowed(status):
		return 0, false, nil
	case chunked:
		return -1, true, nil
	}
	return n, false, nil
}

// parseLength parses a Content-Length value as strconv.ParseUint(v, 10, 63)
// does: digits only, below 2^63.
func parseLength(v []byte) (n int64, ok bool) {
	for _, c := range v {
		d := int64(c - '0')
		if !isDigit(c) || n > (1<<63-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, len(v) > 0
}

// readN reads a body of exactly n bytes, sizing its buffer as Read does.
func readN(br *bufio.Reader, n int64) ([]byte, error) {
	b := make([]byte, 0, min(n, presizeMax))
	for int64(len(b)) < n {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := br.Read(b[len(b):min(cap(b), int(n))])
		b = b[:len(b)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && int64(len(b)) < n {
			return b, err
		}
	}
	return b, nil
}

// listHas reports whether a comma-separated field value lists token, as
// net/http's header token match does: each element trimmed of spaces and
// tabs, compared case-insensitively in ASCII only.
func listHas[T string | []byte](v T, token string) bool {
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
