package httpwire

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
	"time"
)

// Why a request head is refused, besides the grammar's reasons (grammar.go).
var (
	errVersion       = errors.New("unsupported protocol version") // 505
	errMissingHost   = errors.New("missing required Host header") // the three checks net/http's server adds
	errBadHost       = errors.New("malformed Host header")        // to http.ReadRequest: a 400 whose reason
	errBadHeaderName = errors.New("invalid header name")          // goes in the body
)

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
// (next sets headMax); past that it is refused.
func (c *conn) readRequest() (*http.Request, error) {
	b, err := readHead(c.br, c.headLen, c.headMax)
	if c.deadline {
		c.rwc.SetReadDeadline(time.Time{})
		c.deadline = false
	}
	if err != nil {
		return nil, err
	}
	rq := new(request)
	if err := parseHead(string(b), rq); err != nil {
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
	f := fields{scanner[string]{rest: head}}
	line, _ := f.line()
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

	h := make(http.Header, strings.Count(f.rest, "\n")-1)
	req.Header = h
	var fr frame[string]
	badName, nv := false, 0
	for key, v, space, ok := f.next(); ok; key, v, space, ok = f.next() {
		badName = badName || space
		fr.add(key, v)
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
	n, chunked, closes, err := fr.framing(req.ProtoMajor, req.ProtoMinor, http.StatusOK, false)
	if err != nil {
		return err
	}
	// The header map net/http's ReadRequest leaves: no Transfer-Encoding,
	// no Trailer beside a chunked body, and agreeing Content-Lengths as one.
	req.ContentLength, req.Close = n, closes
	delete(h, "Transfer-Encoding")
	if chunked {
		req.TransferEncoding = []string{"chunked"}
		delete(h, "Trailer")
	}
	if fr.clCount > 1 {
		h["Content-Length"] = []string{textproto.TrimString(h["Content-Length"][0])}
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

// parseRequestLine splits "METHOD target HTTP/x.y" at its first two spaces.
func parseRequestLine(line string) (method, target, proto string, ok bool) {
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	return method, target, proto, ok1 && ok2
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
