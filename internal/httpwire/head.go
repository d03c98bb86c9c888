package httpwire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// noLimit is connReader.remain while a body is read: bodies are bounded by
// their framing and their handler, not by the head limit.
const noLimit = 1<<63 - 1

// Why a head is refused. refuse maps each to net/http's status and body.
var (
	errHeadTooLarge  = errors.New("request head too large")        // 431
	errUnsupportedTE = errors.New("unsupported transfer encoding") // 501
	errVersion       = errors.New("unsupported protocol version")  // 505
	errMissingHost   = errors.New("missing required Host header")  // the three checks net/http's server adds
	errBadHost       = errors.New("malformed Host header")         // to http.ReadRequest: a 400 whose reason
	errBadHeaderName = errors.New("invalid header name")           // goes in the body
	// errTEWithCL refuses a request framed two ways (a 400). net/http drops
	// the Content-Length and reads it chunked; a server that guesses is one
	// half of a request-smuggling pair, so this one refuses.
	errTEWithCL = errors.New("both Transfer-Encoding and Content-Length")
)

// headBuffered reports whether the buffer already holds a whole head: a
// blank line is in it.
func headBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	return bytes.Contains(b, []byte("\n\r\n")) || bytes.Contains(b, []byte("\n\n"))
}

// readRequest reads the connection's next request head and frames its body.
// The head may pull at most maxHeaderBytes plus one buffer into the reader
// (next arms the limit); past that the head is refused.
func (c *conn) readRequest() (*http.Request, error) {
	var req http.Request
	err := parseHead(&c.tp, &req)
	hitLimit := c.cr.remain <= 0
	c.cr.remain = noLimit
	if c.deadline {
		c.rwc.SetReadDeadline(time.Time{})
		c.deadline = false
	}
	if hitLimit && err != nil {
		return nil, errHeadTooLarge
	}
	if err != nil {
		return nil, err
	}
	req.RemoteAddr = c.remote
	c.body.reset(&req)
	return req.WithContext(&reqCtx{Context: context.Background(), c: c}), nil
}

// parseHead parses one request head into req as net/http's server does:
// the request line, the header block (net/textproto's), the body framing
// http.ReadRequest derives, and the checks its server adds. It reads
// nothing past the head.
func parseHead(tp *textproto.Reader, req *http.Request) error {
	line, err := tp.ReadLine()
	if err != nil {
		return err
	}
	var ok bool
	req.Method, req.RequestURI, req.Proto, ok = parseRequestLine(line)
	if !ok || !isToken(req.Method) {
		return fmt.Errorf("malformed request line %q", line)
	}
	if req.ProtoMajor, req.ProtoMinor, ok = http.ParseHTTPVersion(req.Proto); !ok {
		return fmt.Errorf("malformed HTTP version %q", req.Proto)
	}
	rawurl := req.RequestURI
	justAuthority := req.Method == http.MethodConnect && !strings.HasPrefix(rawurl, "/")
	if justAuthority {
		rawurl = "http://" + rawurl
	}
	if req.URL, err = url.ParseRequestURI(rawurl); err != nil {
		return err
	}
	if justAuthority {
		req.URL.Scheme = ""
	}

	mime, err := tp.ReadMIMEHeader()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	h := http.Header(mime)
	req.Header = h
	hosts := h["Host"]
	if len(hosts) > 1 {
		return errors.New("repeated Host header")
	}
	req.Host = req.URL.Host
	if req.Host == "" && len(hosts) == 1 {
		req.Host = hosts[0]
	}
	if pragma := h["Pragma"]; len(pragma) > 0 && pragma[0] == "no-cache" {
		if _, ok := h["Cache-Control"]; !ok {
			h["Cache-Control"] = []string{"no-cache"}
		}
	}
	req.Close = shouldClose(req.ProtoMajor, req.ProtoMinor, h)
	if err := framing(req); err != nil {
		return err
	}

	// What net/http's server checks on top of http.ReadRequest.
	if req.ProtoMajor != 1 {
		return errVersion
	}
	if len(hosts) == 0 && req.ProtoAtLeast(1, 1) && req.Method != http.MethodConnect {
		return errMissingHost
	}
	if len(hosts) == 1 && !validHost(hosts[0]) {
		return errBadHost
	}
	for k := range h {
		if !isToken(k) {
			return errBadHeaderName
		}
	}
	delete(h, "Host")
	return nil
}

// parseRequestLine splits "METHOD target HTTP/x.y" at its first two spaces.
func parseRequestLine(line string) (method, target, proto string, ok bool) {
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	return method, target, proto, ok1 && ok2
}

// framing sets req.ContentLength and req.TransferEncoding from the head:
// chunked (length -1), a declared length, or none (0 — a request never
// runs to the close). Transfer-Encoding is ignored on HTTP/1.0, as
// net/http ignores it.
func framing(req *http.Request) error {
	h := req.Header
	te, haveTE := h["Transfer-Encoding"]
	delete(h, "Transfer-Encoding")
	chunked := false
	if haveTE && req.ProtoAtLeast(1, 1) {
		if len(te) != 1 || !strings.EqualFold(te[0], "chunked") {
			return fmt.Errorf("%w: %q", errUnsupportedTE, te)
		}
		chunked = true
	}

	cls := h["Content-Length"]
	if len(cls) > 1 {
		first := textproto.TrimString(cls[0])
		for _, cl := range cls[1:] {
			if textproto.TrimString(cl) != first {
				return fmt.Errorf("differing Content-Length values %q", cls)
			}
		}
		cls = []string{first}
		h["Content-Length"] = cls
	}
	var n int64
	if len(cls) == 1 {
		cl := textproto.TrimString(cls[0])
		v, err := strconv.ParseUint(cl, 10, 63)
		if err != nil {
			return fmt.Errorf("bad Content-Length %q", cl)
		}
		n = int64(v)
	}

	switch {
	case chunked && len(cls) > 0:
		return errTEWithCL
	case chunked:
		req.ContentLength = -1
		req.TransferEncoding = []string{"chunked"}
		return fixTrailer(h)
	default:
		req.ContentLength = n
		return nil
	}
}

// fixTrailer drops a chunked request's Trailer declaration from its header,
// refusing the keys net/http refuses there.
func fixTrailer(h http.Header) error {
	vv, ok := h["Trailer"]
	if !ok {
		return nil
	}
	delete(h, "Trailer")
	for _, v := range vv {
		for _, key := range strings.Split(v, ",") {
			switch http.CanonicalHeaderKey(textproto.TrimString(key)) {
			case "Transfer-Encoding", "Trailer", "Content-Length":
				return fmt.Errorf("bad trailer key %q", key)
			}
		}
	}
	return nil
}

// shouldClose reports whether the client asked to close after this
// request: Connection: close, or HTTP/1.0 without keep-alive.
func shouldClose(major, minor int, h http.Header) bool {
	conn := h["Connection"]
	if major == 1 && minor == 0 {
		return hasToken(conn, "close") || !hasToken(conn, "keep-alive")
	}
	return hasToken(conn, "close")
}

// hasToken reports whether any comma-separated element of vv equals token,
// case-insensitively.
func hasToken(vv []string, token string) bool {
	for _, v := range vv {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(textproto.TrimString(elem), token) {
				return true
			}
		}
	}
	return false
}

// isToken reports whether s is an RFC 7230 token: a method or a header name.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !tokenByte[s[i]] {
			return false
		}
	}
	return true
}

// validHost reports whether a Host value holds only bytes some host or
// port can hold, the leniency net/http applies.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if !hostByte[h[i]] {
			return false
		}
	}
	return true
}

var tokenByte, hostByte [256]bool

func init() {
	for c := '0'; c <= '9'; c++ {
		tokenByte[c], hostByte[c] = true, true
	}
	for c := 'a'; c <= 'z'; c++ {
		tokenByte[c], hostByte[c] = true, true
		tokenByte[c-'a'+'A'], hostByte[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		tokenByte[c] = true
	}
	for _, c := range "!$%&()*+,-.:;=[']_~" {
		hostByte[c] = true
	}
}
