package httpwire

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// grammarRow is one header-block shape: the field lines after a head's
// first line, the blank line that ends them, and what follows. Its verdicts
// are "ok", the status a request is refused with, or "refused" for a reply.
type grammarRow struct {
	name  string
	block string
	first string // replaces the request line and its Host field, if set
	// request and reply are httpwire's verdicts in each direction.
	request, reply string
	// netRequest and netReply are net/http's, where it departs ("" where
	// it agrees), and why says why httpwire does.
	netRequest, netReply, why string
}

// padLines is X-Pad field lines, none over 100 bytes, of exactly n bytes.
func padLines(n int) string {
	var b strings.Builder
	for i := 0; ; i++ {
		key := fmt.Sprintf("X-Pad-%d: ", i)
		if fill := n - b.Len() - len(key) - len("\r\n"); fill <= 100 {
			b.WriteString(key + strings.Repeat("p", fill) + "\r\n")
			return b.String()
		}
		b.WriteString(key + strings.Repeat("p", 80) + "\r\n")
	}
}

// manyFields is 100 short fields, then a 2-byte body.
var manyFields = func() string {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "X-Field-%d: value %d\r\n", i, i)
	}
	return b.String() + "Content-Type: text/plain\r\nContent-Length: 2\r\n\r\nok"
}()

const (
	statusLine = "HTTP/1.1 200 OK\r\n"
	// replyHead64K is what a reply's field lines after "Content-Length: 0"
	// take to make its head exactly 64 KiB.
	replyHead64K = maxHeaderBytes - len(statusLine) - len("Content-Length: 0\r\n") - len("\r\n")

	whyReplyFold    = "a relay refuses a folded line rather than join it: wbserve never sends one"
	whyReplyLimit   = "a relay bounds a reply head as the server bounds a request head; net/http reads one at any size"
	whyReplyTrailer = "wbserve never sends a trailer, and net/http's rule for a reply's (CRLF-ended, within one read buffer) is not the one the server applies to a request's"
)

// grammarRows are the shapes of the FuzzRequestHead and FuzzReplyHead
// seeds, each row a header block both directions read through the one
// grammar. The rows with a why are the declared differences.
var grammarRows = []grammarRow{
	{name: "fields a relay forwards", block: "Content-Type: application/json\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nok", request: "ok", reply: "ok"},
	{name: "keys to canonicalize and repeat", block: "content-type: text/html\r\nx-request-id: 1\r\nX-REQUEST-ID: 2\r\nContent-Length: 0\r\n\r\n", request: "ok", reply: "ok"},
	{name: "bare LF", block: "Content-Type: text/html\nContent-Length: 2\n\nok", request: "ok", reply: "ok"},
	{name: "100 fields", block: manyFields, request: "ok", reply: "ok"},
	{name: "a line across the 4 KiB buffer", block: "X-Long: " + strings.Repeat("l", 4090) + "\r\nContent-Length: 2\r\n\r\nok", request: "ok", reply: "ok"},
	{name: "a line longer than the buffer", block: "X-Long: " + strings.Repeat("l", 5000) + "\r\nContent-Length: 2\r\n\r\nok", request: "ok", reply: "ok"},
	{name: "short lines over more than one buffer", block: padLines(10<<10) + "Content-Length: 2\r\n\r\nok", request: "ok", reply: "ok"},
	{name: "obs-fold", block: "X-Folded: one\r\n two\r\nContent-Length: 2\r\n\r\nok", request: "ok", reply: "refused", netReply: "ok", why: whyReplyFold},
	{name: "obs-fold ending in a blank line", block: "X-Empty:\r\n \r\nContent-Length: 0\r\n\r\n", request: "ok", reply: "refused", netReply: "ok", why: whyReplyFold},
	{name: "obs-fold opening the block", first: "GET / HTTP/1.0", block: " X-Lead: a\r\nContent-Length: 0\r\n\r\n", request: "400", reply: "refused"},
	{name: "a key holding a space", block: "Bad Name: x\r\nContent-Length: 0\r\n\r\n", request: "400", reply: "ok"},
	{name: "a key not a token", block: "B@d: x\r\nContent-Length: 0\r\n\r\n", request: "400", reply: "refused"},
	{name: "a line without a colon", block: "NoColon\r\nContent-Length: 0\r\n\r\n", request: "400", reply: "refused"},
	{name: "a control byte in a value", block: "X-Note: a\x01b\r\nContent-Length: 0\r\n\r\n", request: "400", reply: "refused"},
	{name: "Content-Length repeated alike", block: "Content-Length: 2\r\nContent-Length:  2 \r\n\r\nok", request: "ok", reply: "ok"},
	{name: "Content-Length values differ", block: "Content-Length: 2\r\nContent-Length: 02\r\n\r\nok", request: "400", reply: "refused"},
	{name: "Content-Length not digits", block: "Content-Length: +2\r\n\r\nok", request: "400", reply: "refused"},
	{name: "Transfer-Encoding beside Content-Length", block: "Transfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		request: "400", netRequest: "ok", reply: "ok",
		why: "a request framed two ways is refused, not guessed: a server that guesses is one half of a request-smuggling pair"},
	{name: "Transfer-Encoding other than chunked", block: "Transfer-Encoding: gzip\r\n\r\n", request: "501", reply: "refused"},
	{name: "Transfer-Encoding repeated", block: "Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n", request: "501", reply: "refused"},
	{name: "chunked spelled with a Kelvin sign", block: "Transfer-Encoding: chun\u212aed\r\n\r\n", request: "501", reply: "refused"},
	{name: "Transfer-Encoding on HTTP/0.0", first: "POST /brief HTTP/0.0", block: "Transfer-Encoding: gzip\r\n\r\n", request: "501", reply: "refused"},
	{name: "Transfer-Encoding on HTTP/1.0", first: "POST /brief HTTP/1.0", block: "Transfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok", request: "ok", reply: "refused"},
	{name: "chunked with a trailer", block: "Transfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 1\r\n\r\n",
		request: "ok", reply: "refused", netReply: "ok", why: whyReplyTrailer},
	{name: "chunked ending in a bare LF", block: "Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\nHTTP/1.1 204 No Content\r\n\r\n",
		request: "ok", reply: "refused", netReply: "ok", why: whyReplyTrailer},
	{name: "Trailer naming a framing field", block: "Transfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n0\r\n\r\n", request: "400", reply: "refused"},
	{name: "Connection lists close", block: "Connection: keep-alive, close\r\nContent-Length: 0\r\n\r\n", request: "ok", reply: "ok"},
	{name: "a reply head of 64 KiB", block: "Content-Length: 0\r\n" + padLines(replyHead64K) + "\r\n", request: "ok", reply: "ok"},
	{name: "a reply head of 64 KiB and one byte", block: "Content-Length: 0\r\n" + padLines(replyHead64K+1) + "\r\n",
		request: "ok", reply: "refused", netReply: "ok", why: whyReplyLimit},
	{name: "a head over the request limit", block: padLines(70<<10) + "\r\n", request: "431", reply: "refused", netReply: "ok", why: whyReplyLimit},
	{name: "a head over the request limit, a bad line first", block: "B@d: x\r\n" + padLines(70<<10) + "\r\n",
		request: "431", netRequest: "400", reply: "refused", why: "the head is read whole before a line of it is parsed"},
	{name: "the h2c preface", first: "PRI * HTTP/2.0", block: "\r\nSM\r\n\r\n", request: "505", netRequest: "ok", reply: "ok",
		why: "neither tier speaks HTTP/2: the preface is refused as any request not HTTP/1.x is"},
}

// TestGrammarTable runs every row behind a request line through readHead
// and parseHead, and through http.ReadRequest with the checks and the head
// limit of net/http's server; and behind a status line through ReadReply,
// and through http.ReadResponse and a read of the body.
func TestGrammarTable(t *testing.T) {
	for _, row := range grammarRows {
		t.Run(row.name, func(t *testing.T) {
			if (row.netRequest != "" || row.netReply != "") != (row.why != "") {
				t.Fatal("a row says why exactly when it departs from net/http")
			}
			req := cmp.Or(row.first, "POST /brief HTTP/1.1\r\nHost: a") + "\r\n" + row.block
			rep := statusLine + row.block
			for _, d := range []struct{ dir, got, ref, want, wantRef string }{
				{"request", requestVerdict(req), referenceRequestVerdict(req), row.request, cmp.Or(row.netRequest, row.request)},
				{"reply", replyVerdict(rep), referenceReplyVerdict(rep), row.reply, cmp.Or(row.netReply, row.reply)},
			} {
				if d.got != d.want || d.ref != d.wantRef {
					t.Errorf("%s: httpwire %s, net/http %s; want %s and %s", d.dir, d.got, d.ref, d.want, d.wantRef)
				}
			}
		})
	}
}

// requestVerdict is the server's: readHead under the head limit of a
// connection that has nothing buffered, parseHead, and the status of a
// refusal.
func requestVerdict(raw string) string {
	head, err := readHead(bufio.NewReader(strings.NewReader(raw)), 0, maxHeaderBytes+4<<10)
	if err == nil {
		err = parseHead(string(head), new(request))
	}
	if err == nil {
		return "ok"
	}
	status, _ := statusOf(err)
	return strconv.Itoa(status)
}

// referenceRequestVerdict is net/http's server's: a 431 when http.ReadRequest
// ran into the read limit it sets, else referenceHead's verdict with the
// status the server answers its error with.
func referenceRequestVerdict(raw string) string {
	lr := &io.LimitedReader{R: strings.NewReader(raw), N: maxHeaderBytes + 4<<10}
	if _, err := http.ReadRequest(bufio.NewReader(lr)); err != nil && lr.N == 0 {
		return "431"
	}
	_, err := referenceHead([]byte(raw))
	switch {
	case err == nil:
		return "ok"
	case fmt.Sprintf("%T", err) == "*http.unsupportedTEError":
		return "501"
	case err.Error() == "unsupported protocol version":
		return "505"
	}
	return "400"
}

func replyVerdict(raw string) string {
	if _, err := ReadReply(bufio.NewReader(strings.NewReader(raw)), 1<<10); err != nil {
		return "refused"
	}
	return "ok"
}

func referenceReplyVerdict(raw string) string {
	if _, _, err := referenceReply([]byte(raw), 1<<10); err != nil {
		return "refused"
	}
	return "ok"
}
