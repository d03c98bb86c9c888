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

// Why ReadReply refuses a reply, besides the grammar's reasons (grammar.go).
// errObsFold and errReplyTrailer are differences the package doc declares.
var (
	errInterim        = errors.New("unexpected interim response")
	errObsFold        = errors.New("reply header line continues the one before it")
	errReplyTrailer   = errors.New("chunked reply does not end in CRLF after its last chunk")
	errMalformedReply = errors.New("malformed reply status line")
)

// ReadReply reads one reply from br, its body at most limit bytes (a longer
// one fails with ErrTooLarge). It frames the reply exactly as
// http.ReadResponse(br, nil) followed by a read of the whole body does: the
// status line, Content-Length (repeated values must agree), chunked
// Transfer-Encoding (through httputil's chunked reader), a body read to the
// close, and keep-alive from Connection and the version. Of the other fields
// it keeps only Content-Type and Retry-After; it reads the rest in br's
// buffer, allocating nothing for them. It refuses a 1xx reply, which a relay
// never asked for, and the replies the package doc lists among the declared
// differences. FuzzReplyHead holds it to http.ReadResponse.
func ReadReply(br *bufio.Reader, limit int64) (Reply, error) {
	head, err := readHead(br, 0, maxHeaderBytes)
	if err != nil {
		return Reply{}, err
	}
	s := scanner[[]byte]{rest: head}
	line, _ := s.line()
	var rep Reply
	var major, minor int
	if rep.Status, major, minor, err = parseStatusLine(line); err != nil {
		return Reply{}, err
	}
	if rep.Status < 200 {
		return Reply{}, fmt.Errorf("%w %d", errInterim, rep.Status)
	}

	var fr frame[[]byte]
	var haveType, haveRetry bool
	for {
		if s.folded() {
			return Reply{}, errObsFold
		}
		key, v, _, ok := s.field()
		if !ok {
			break
		}
		fr.add(key, v)
		switch {
		case !haveType && foldEqual(key, "content-type"):
			rep.ContentType, haveType = string(v), true
		case !haveRetry && foldEqual(key, "retry-after"):
			rep.RetryAfter, haveRetry = string(v), true
		}
	}
	if s.err != nil {
		return Reply{}, s.err
	}
	n, chunked, closes, err := fr.framing(major, minor, rep.Status, true)
	if err != nil {
		return Reply{}, err
	}
	rep.Close = closes

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
