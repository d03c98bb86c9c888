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
		"GET / HTTP/1.1\nHost: a\n\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"G\x00T / HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET  / HTTP/1.1\r\nHost: a\r\n\r\n",
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ref, refErr := referenceHead(raw)
		var got http.Request
		err := parseHead(textproto.NewReader(bufio.NewReader(bytes.NewReader(raw))), &got)
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
			{"URL", got.URL.String(), ref.URL.String()},
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
