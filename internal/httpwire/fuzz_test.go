package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/textproto"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// referenceHead is what net/http's server makes of a head: http.ReadRequest,
// then the checks its connection loop adds — HTTP/1.x only (the h2c preface
// aside), a Host on HTTP/1.1, a Host of bytes some host can hold, token
// header names, control-free values. These are restated here from net/http
// rather than shared with the parser under test.
func referenceHead(raw []byte) (*http.Request, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return nil, err
	}
	// ReadRequest drops Host from the map; the server counts the lines.
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(raw)))
	tp.ReadLine()
	mime, _ := tp.ReadMIMEHeader()
	hosts := mime["Host"]
	h2c := req.Method == "PRI" && req.RequestURI == "*" && req.ProtoMajor == 2 && req.ProtoMinor == 0
	switch {
	case req.ProtoMajor != 1 && !h2c:
		return nil, errors.New("unsupported protocol version")
	case req.ProtoAtLeast(1, 1) && len(hosts) == 0 && req.Method != "CONNECT" && !(h2c && len(mime) == 0):
		return nil, errors.New("missing required Host header")
	case len(hosts) == 1 && strings.Trim(hosts[0], refHostBytes) != "":
		return nil, errors.New("malformed Host header")
	}
	for k, vv := range req.Header {
		if k == "" || strings.Trim(k, refTokenBytes) != "" {
			return nil, errors.New("invalid header name")
		}
		for _, v := range vv {
			if strings.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
				return nil, errors.New("invalid header value")
			}
		}
	}
	return req, nil
}

const (
	refAlnum      = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	refTokenBytes = refAlnum + "!#$%&'*+-.^_`|~"
	refHostBytes  = refAlnum + "!$%&()*+,-.:;=[']_~"
)

// FuzzRequestHead is the differential fuzz of the head parser against
// net/http's server: on the same bytes either both refuse, or both accept
// with the same method, request-target, URL, Host, canonical header map and
// body framing. The one declared difference: Transfer-Encoding beside
// Content-Length, which net/http reads chunked and httpwire refuses (and
// the h2c preface, which httpwire refuses as not HTTP/1.x).
func FuzzRequestHead(f *testing.F) {
	// The grid of the gateway's TestUpstreamRequestHeadMatchesInbound, as
	// inbound requests.
	for _, q := range []string{"", "src=https://books.example/p", "src=news.example&utm_source=feed&x=1&x=2&empty=",
		"src=https%3A%2F%2Fshop.example%2Fa%20b%3Fq%3D%25&note=%0D%0AX-Injected%3A+1", "src=big.example&pad=" + strings.Repeat("abcdefgh", 256)} {
		for _, ct := range []string{"", "text/html", `text/html; charset="utf-8"; boundary=a b`} {
			for _, n := range []int{0, 1, 850, 5040} {
				target := "/brief"
				if q != "" {
					target += "?" + q
				}
				head := "POST " + target + " HTTP/1.1\r\nHost: gw.example:8080\r\n"
				if ct != "" {
					head += "Content-Type: " + ct + "\r\n"
				}
				// Neither parser reads past the head, so the body stays off.
				f.Add([]byte(head + "Content-Length: " + strconv.Itoa(n) + "\r\n\r\n"))
			}
		}
	}
	for _, raw := range []string{
		"GET / HTTP/1.0\r\n\r\n",
		"GET http://abs.example/p?q HTTP/1.1\r\nHost: other\r\n\r\n",
		"CONNECT books.example:443 HTTP/1.1\r\n\r\n",
		"POST /brief HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"POST /brief HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n",
		"POST /brief HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
		"POST /brief HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nab",
		"POST /brief HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\nContent-Length:  3 \r\n\r\nabc",
		"POST /brief HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabc",
		"POST /brief HTTP/1.1\r\nHost: a\r\nContent-Length: 0x3\r\n\r\nabc",
		"GET / HTTP/1.1\r\nHost: a\r\nX-Folded: one\r\n two\r\n\r\n",
		"GET / HTTP/1.1\r\n Host: a\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nBad Name: x\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nPragma: no-cache\r\nConnection: close\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nConnection: cloſe\r\n\r\n",
		"GET / HTTP/1.1\nHost: a\n\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"G\x00T / HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET  / HTTP/1.1\r\nHost: a\r\n\r\n",
	} {
		f.Add([]byte(raw))
	}
	// The in-place parser's edges: a head line across the 4 KiB read buffer,
	// heads of 64 KiB and one byte more, many fields, keys to canonicalize and
	// repeat, continuation lines and bare LFs, targets url.ParseRequestURI
	// must parse, and a chunked body's trailer.
	pad := func(n int) string {
		head := "GET / HTTP/1.1\r\nHost: a\r\nX-Pad: \r\n\r\n"
		return strings.Replace(head, "X-Pad: ", "X-Pad: "+strings.Repeat("p", n-len(head)), 1)
	}
	var many strings.Builder
	many.WriteString("POST /brief HTTP/1.1\r\nHost: a\r\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&many, "X-Field-%d: value %d\r\n", i, i)
	}
	many.WriteString("Content-Length: 0\r\n\r\n")
	for _, raw := range []string{
		"POST /brief HTTP/1.1\r\nHost: a\r\nX-Long: " + strings.Repeat("l", 4090) + "\r\nContent-Length: 2\r\n\r\nok",
		pad(64 << 10),
		pad(64<<10 + 1),
		many.String(),
		"POST /brief HTTP/1.1\r\nhost: a\r\ncontent-type: text/html\r\nx-request-id: 1\r\nX-REQUEST-ID: 2\r\nACCEPT: a\r\naccept: b\r\nContent-Length: 0\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nX-Folded: one \r\n\t two\r\n  \r\n three\r\nX-Next: 1\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nX-Empty:\r\n \r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nX-Trailing: a\r\n \r\nX-Lead:  \r\n\tb\r\n\r\n",
		"POST /brief HTTP/1.1\nHost: a\nContent-Type: text/html\r\nContent-Length: 0\n\n",
		"GET /a%20b/%2F;p=1/c#frag?q=%zz HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /a;b,c@d:e=f&g+h$i~j HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /a%zz HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /a b HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /a!b'c(d)*é? HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET //brief?src=x?y HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /brief?\x7f HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET * HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /brief HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum, X-Count\r\n\r\n3\r\nabc\r\n0\r\nX-Sum: 7\r\nx-count: 1\r\n\r\n",
		"X-Sum: 7\r\n folded\r\nx-count: 1\r\n\r\n",
		// Transfer-Encoding is matched in ASCII only: a Kelvin sign is no k.
		"POST /brief HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chun\u212aed\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkFieldBlock(t, raw)
		ref, refErr := referenceHead(raw)
		var rq request
		head, err := readHead(bufio.NewReader(bytes.NewReader(raw)), 0, len(raw))
		if err == nil {
			err = parseHead(string(head), &rq)
		}
		got := &rq.req
		if errors.Is(err, errTEWithCL) || errors.Is(err, errVersion) && refErr == nil && ref.Method == "PRI" {
			return // the declared differences
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("httpwire err %v, net/http err %v on %q", err, refErr, raw)
		}
		if err != nil {
			return
		}
		for _, d := range []struct {
			what      string
			got, want any
		}{
			{"method", got.Method, ref.Method},
			{"request-target", got.RequestURI, ref.RequestURI},
			{"URL", *got.URL, *ref.URL},
			{"Host", got.Host, ref.Host},
			{"header", got.Header, ref.Header},
			{"Content-Length", got.ContentLength, ref.ContentLength},
			{"Transfer-Encoding", got.TransferEncoding, ref.TransferEncoding},
			{"Close", got.Close, ref.Close},
		} {
			if !reflect.DeepEqual(d.got, d.want) {
				t.Fatalf("%s: httpwire %s, net/http %s on %q", d.what, fmt.Sprint(d.got), fmt.Sprint(d.want), raw)
			}
		}
	})
}

// checkFieldBlock holds the header-block parser, which also reads a chunked
// body's trailer, to net/textproto's ReadMIMEHeader on raw read as a block
// of fields: both refuse it, or both read the same fields.
func checkFieldBlock(t *testing.T, raw []byte) {
	ref, refErr := textproto.NewReader(bufio.NewReader(bytes.NewReader(raw))).ReadMIMEHeader()
	got := textproto.MIMEHeader{}
	block, err := readHead(bufio.NewReader(bytes.NewReader(raw)), 0, len(raw))
	if err == nil {
		f := fields{scanner[string]{rest: string(block)}}
		for k, v, _, ok := f.next(); ok; k, v, _, ok = f.next() {
			got[k] = append(got[k], v)
		}
		err = f.err
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("as a field block: httpwire err %v, net/textproto err %v on %q", err, refErr, raw)
	}
	if err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("as a field block: httpwire read %q, net/textproto %q on %q", got, ref, raw)
	}
}

// referenceReply is what a relay made of a reply before ReadReply:
// http.ReadResponse, a 1xx refused, and the body read whole under limit.
// consumed is how far into raw the reply ran.
func referenceReply(raw []byte, limit int64) (rep Reply, consumed int, err error) {
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return Reply{}, 0, err
	}
	if resp.StatusCode < 200 {
		return Reply{}, 0, fmt.Errorf("interim response %d", resp.StatusCode)
	}
	body, err := Read(resp.Body, resp.ContentLength, limit)
	if err != nil {
		return Reply{}, 0, err
	}
	rep = Reply{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"),
		RetryAfter: resp.Header.Get("Retry-After"), Body: body, Close: resp.Close}
	return rep, len(raw) - r.Len() - br.Buffered(), nil
}

// FuzzReplyHead is the differential fuzz of the relay's reply reader against
// net/http's: wherever http.ReadResponse (with the relay's 1xx refusal and
// body read) refuses a reply, ReadReply refuses it too, and where both accept
// they agree on the status, the body, keep-alive, the two forwarded values
// and where the reply ends. ReadReply may refuse what net/http accepts only
// for the reasons its doc comment declares.
func FuzzReplyHead(f *testing.F) {
	const date = "Date: Mon, 19 Oct 2026 17:30:00 GMT\r\n"
	chunked := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + date + "Transfer-Encoding: chunked\r\n\r\n"
	for i := 0; i < 3; i++ {
		chunked += "200\r\n" + strings.Repeat("0123456789abcdef", 32) + "\r\n"
	}
	chunked += "0\r\n\r\n"
	for _, raw := range []string{
		// wbserve's reply to a briefing, as httpwire sends it.
		"HTTP/1.1 200 OK\r\nContent-Length: 88\r\nContent-Type: application/json\r\n" + date + "X-Request-Id: 5f3a9c1e00000001\r\n\r\n" +
			`{"Topic":"job recruitment website","Attributes":[{"Name":"title","Value":"engineer"}]}` + "\n",
		// TestUpstreamReplyFraming's replies from net/http's server.
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 12\r\nContent-Type: application/json\r\n" + date + "\r\n{\"brief\":1}\n",
		chunked,
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 204 No Content\r\n" + date + "\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 9\r\nContent-Type: text/plain; charset=utf-8\r\nRetry-After: 1\r\n\r\ndraining\n",
		"HTTP/1.1 200 OK\r\nServer-Timing: read;dur=0.004, cache;dur=0.002, decode;dur=1.2\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length:  2 \r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 02\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: cloſe\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type : text/html\r\ncontent-type: application/json\r\n\r\nto the close",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
		"HTTP/1.1 +99 OK\r\n\r\n",
		"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/0.9 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\ntoo long for the limit",
	} {
		f.Add([]byte(raw))
	}
	// The shapes where the head scanner could move a verdict: a head of
	// short lines over more than one 4 KiB read buffer, a line across the
	// buffer's edge, a line longer than the buffer, heads of 64 KiB and one
	// byte more, many fields, and bare LFs.
	replyHead := func(n int) string { // a head of exactly n bytes, then a 2-byte body
		const first = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
		return first + padLines(n-len(first)-len("\r\n")) + "\r\nok"
	}
	for _, raw := range []string{
		replyHead(10 << 10),
		"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("l", 4090) + "\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("l", 5000) + "\r\nContent-Length: 2\r\n\r\nok",
		replyHead(64 << 10),
		replyHead(64<<10 + 1),
		statusLine + manyFields,
		"HTTP/1.1 200 OK\nContent-Type: application/json\nRetry-After: 2\r\nTransfer-Encoding: chunked\n\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\nConnection: keep-alive\nContent-Length: 2\n\nok",
		// The first Content-Type is the one forwarded, even when it is empty.
		"HTTP/1.1 200 OK\r\nContent-Type:\r\nContent-Type: text/html\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(raw))
	}
	const limit = 1 << 10
	f.Fuzz(func(t *testing.T, raw []byte) {
		ref, refEnd, refErr := referenceReply(raw, limit)
		r := bytes.NewReader(raw)
		br := bufio.NewReader(r)
		got, err := ReadReply(br, limit)
		end := len(raw) - r.Len() - br.Buffered()
		switch {
		case err != nil && refErr == nil:
			for _, declared := range []error{errObsFold, errHeadTooLarge, errReplyTrailer} {
				if errors.Is(err, declared) {
					return
				}
			}
			t.Fatalf("ReadReply refused what net/http accepts (%+v): %v on %q", ref, err, raw)
		case err == nil && refErr != nil:
			t.Fatalf("ReadReply accepted what net/http refuses (%v): %+v on %q", refErr, got, raw)
		case err != nil:
			return
		}
		if got.Status != ref.Status || got.ContentType != ref.ContentType || got.RetryAfter != ref.RetryAfter ||
			got.Close != ref.Close || !bytes.Equal(got.Body, ref.Body) || end != refEnd {
			t.Fatalf("ReadReply read %+v ending at %d, net/http %+v ending at %d, on %q", got, end, ref, refEnd, raw)
		}
	})
}
