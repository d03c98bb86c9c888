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

// readHead reads a head from br through the blank line that ends it — a
// request head, or a chunked body's trailer — and copies it into one string.
// n is its length when a scan of br's buffer has already found the blank
// line, else 0. A head longer than br's buffer is gathered across reads.
func readHead(br *bufio.Reader, n int) (string, error) {
	from := 0
	for n == 0 {
		b, _ := br.Peek(br.Buffered())
		if n, from = scanHead(b, from); n > 0 {
			break
		}
		if len(b) == br.Size() {
			return readLongHead(br, from)
		}
		if _, err := br.Peek(len(b) + 1); err != nil {
			return "", shortHead(err, len(b))
		}
	}
	b, _ := br.Peek(n)
	head := string(b)
	br.Discard(n)
	return head, nil
}

// readLongHead is readHead past a full buffer, whose first from bytes hold
// whole lines.
func readLongHead(br *bufio.Reader, from int) (string, error) {
	var head []byte
	for {
		b, _ := br.Peek(br.Buffered())
		if len(b) == 0 {
			if _, err := br.Peek(1); err != nil {
				return "", shortHead(err, len(head))
			}
			continue
		}
		read := len(head)
		head = append(head, b...)
		n, next := scanHead(head, from)
		if n > 0 {
			br.Discard(n - read)
			return string(head[:n]), nil
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

// request is one allocation per request that holds the http.Request its
// handler gets, its URL when the target needs no url.ParseRequestURI, its
// context, and its first header values. Besides it, a request allocates only
// its head's string and its header map.
type request struct {
	req  http.Request
	url  url.URL
	ctx  reqCtx
	vals [8]string
}

// readRequest reads the connection's next request head and frames its body.
// The head may pull at most maxHeaderBytes plus one buffer into the reader
// (next arms the limit); past that the head is refused.
func (c *conn) readRequest() (*http.Request, error) {
	head, err := readHead(c.br, c.headLen)
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
	rq := new(request)
	if err := parseHead(head, rq); err != nil {
		return nil, err
	}
	rq.ctx.Context, rq.ctx.c = context.Background(), c
	req := &rq.req
	*req = *req.WithContext(&rq.ctx) // inlined: the copy it makes stays on the stack
	req.RemoteAddr = c.remote
	c.body.reset(req)
	return req, nil
}

// parseHead parses one request head, as readHead returns it, into rq as
// net/http's server does: the request line, the header block (as
// net/textproto's ReadMIMEHeader reads it), the body framing
// http.ReadRequest derives, and the checks its server adds. The method,
// target, keys and values are slices of head.
func parseHead(head string, rq *request) error {
	req := &rq.req
	line, block, _ := strings.Cut(head, "\n")
	line = strings.TrimSuffix(line, "\r")
	var ok bool
	req.Method, req.RequestURI, req.Proto, ok = parseRequestLine(line)
	if !ok || !isToken(req.Method) {
		return fmt.Errorf("malformed request line %q", line)
	}
	if req.ProtoMajor, req.ProtoMinor, ok = http.ParseHTTPVersion(req.Proto); !ok {
		return fmt.Errorf("malformed HTTP version %q", req.Proto)
	}
	if parseOriginForm(req.RequestURI, &rq.url) {
		req.URL = &rq.url
	} else {
		rawurl := req.RequestURI
		justAuthority := req.Method == http.MethodConnect && !strings.HasPrefix(rawurl, "/")
		if justAuthority {
			rawurl = "http://" + rawurl
		}
		var err error
		if req.URL, err = url.ParseRequestURI(rawurl); err != nil {
			return err
		}
		if justAuthority {
			req.URL.Scheme = ""
		}
	}

	h := make(http.Header, strings.Count(block, "\n")-1)
	req.Header = h
	badName, nv := false, 0
	f := fields{rest: block}
	for key, v, ok := f.next(); ok; key, v, ok = f.next() {
		badName = badName || strings.IndexByte(key, ' ') >= 0
		switch vv := h[key]; {
		case vv != nil:
			h[key] = append(vv, v)
		case nv < len(rq.vals):
			rq.vals[nv] = v
			h[key] = rq.vals[nv : nv+1 : nv+1]
			nv++
		default:
			h[key] = []string{v}
		}
	}
	if f.err != nil {
		return f.err
	}
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
	if badName {
		return errBadHeaderName
	}
	delete(h, "Host")
	return nil
}

// parseOriginForm fills u from target as url.ParseRequestURI would, if
// target is an origin-form target ("/path?query") whose path needs no
// escaping, and reports whether it was.
func parseOriginForm(target string, u *url.URL) bool {
	if target == "" || target[0] != '/' {
		return false
	}
	i := 0
	for ; i < len(target) && target[i] != '?'; i++ {
		if !pathByte[target[i]] {
			return false
		}
	}
	for j := i; j < len(target); j++ {
		if c := target[j]; c < ' ' || c == 0x7f {
			return false
		}
	}
	u.Path = target[:i]
	if i < len(target) {
		u.RawQuery = target[i+1:]
		u.ForceQuery = u.RawQuery == ""
	}
	return true
}

// errMalformedField refuses a header block net/textproto would refuse.
var errMalformedField = errors.New("malformed header field")

// fields reads a header block — the lines after a request line, or a chunked
// body's trailer, through the blank line that ends it — as net/textproto's
// ReadMIMEHeader reads one: a line that begins with a space or tab continues
// the one before it (but may not begin the block), a key is a token (a space
// in it is kept, uncanonicalized, for the server to refuse), and a value
// holds no control byte but tab.
type fields struct {
	rest  string // the block not yet read
	begun bool
	err   error
}

// next returns the next field's key, canonicalized as net/textproto does,
// and its value, trimmed; ok is false at the end of the block or at a line
// the block is refused for (f.err).
func (f *fields) next() (key, value string, ok bool) {
	if !f.begun {
		f.begun = true
		if f.rest != "" && (f.rest[0] == ' ' || f.rest[0] == '\t') {
			f.err = errMalformedField
			return "", "", false
		}
	}
	line, rest := cutLine(f.rest)
	if line == "" {
		return "", "", false
	}
	colon := strings.IndexByte(line, ':')
	if colon < 0 {
		f.err = errMalformedField
		return "", "", false
	}
	// The line begins with its key (a space or tab would have made it a
	// continuation), so only its end is trimmed.
	k, v := line[:colon], trimOWS(line[colon+1:])
	if rest != "" && (rest[0] == ' ' || rest[0] == '\t') {
		// Each continuation adds a space and its line, trimmed: a blank
		// last one leaves the value ending in a space, as in net/textproto.
		b := []byte(v)
		for rest != "" && (rest[0] == ' ' || rest[0] == '\t') {
			line, rest = cutLine(rest)
			b = append(append(b, ' '), trimOWS(line)...)
		}
		v = strings.TrimLeft(string(b), " ")
	}
	f.rest = rest
	key, ok = canonicalKey(k)
	for i := 0; ok && i < len(v); i++ {
		ok = v[i] >= ' ' && v[i] != 0x7f || v[i] == '\t'
	}
	if !ok {
		f.err = errMalformedField
		return "", "", false
	}
	return key, v, true
}

// cutLine splits s after its first line, returning the line without its LF
// or CRLF.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// canonicalKey checks a header key as net/textproto does and canonicalizes
// it: a canonical key is returned as is. A key holding a space is accepted
// and kept as is.
func canonicalKey(k string) (string, bool) {
	if k == "" {
		return "", false
	}
	canonical, space, upper := true, false, true
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case c == ' ':
			space = true
		case !tokenByte[c]:
			return "", false
		case upper && 'a' <= c && c <= 'z', !upper && 'A' <= c && c <= 'Z':
			canonical = false
		}
		upper = c == '-'
	}
	if canonical || space {
		return k, true
	}
	return textproto.CanonicalMIMEHeaderKey(k), true
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
	if haveTE {
		delete(h, "Transfer-Encoding")
	}
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
// ignoring ASCII case only (listHas), as net/http's token match does.
func hasToken(vv []string, token string) bool {
	for _, v := range vv {
		if listHas(v, token) {
			return true
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

var tokenByte, hostByte, pathByte [256]bool

func init() {
	for c := '0'; c <= '9'; c++ {
		tokenByte[c], hostByte[c], pathByte[c] = true, true, true
	}
	for c := 'a'; c <= 'z'; c++ {
		tokenByte[c], hostByte[c], pathByte[c] = true, true, true
		tokenByte[c-'a'+'A'], hostByte[c-'a'+'A'], pathByte[c-'a'+'A'] = true, true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		tokenByte[c] = true
	}
	for _, c := range "!$%&()*+,-.:;=[']_~" {
		hostByte[c] = true
	}
	// The bytes url.ParseRequestURI keeps in a path as they are: it sets
	// RawPath for any other, and unescapes a '%'.
	for _, c := range "-._~$&+,/:;=@" {
		pathByte[c] = true
	}
}
