package httpwire

import (
	"net/http"
	"slices"
	"strconv"
	"time"
)

// maxKeptBuffer is the most response buffer a connection keeps between
// requests; a larger one (a relayed 4 MiB reply) is dropped after use.
const maxKeptBuffer = 64 << 10

// response is the http.ResponseWriter of one request: the status, the
// header map and the body are buffered until the handler returns, then sent
// in one write. One lives in each conn and is reset per request.
type response struct {
	c      *conn
	header http.Header
	status int
	body   []byte
	out    []byte   // the wire bytes: head then body
	keys   []string // header keys, sorted for the head
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// bodyAllowed reports whether a response with status may have a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// send writes the buffered response in one write and resets the writer for
// the next request. keep says whether the connection stays open; when it
// does not, the head says Connection: close.
func (w *response) send(req *http.Request, keep bool) error {
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	h := w.header
	withBody := bodyAllowed(status)
	if _, ok := h["Content-Type"]; !ok && withBody && len(w.body) > 0 {
		h.Set("Content-Type", http.DetectContentType(w.body))
	}
	var conn string
	switch {
	case !keep:
		conn = "close"
	case req.ProtoMajor == 1 && req.ProtoMinor == 0:
		conn = "keep-alive"
	}

	out := appendStatusLine(w.out[:0], req.ProtoAtLeast(1, 1), status)
	keys := w.keys[:0]
	for k := range h {
		switch k {
		case "Content-Length", "Connection":
			continue // the server frames the response
		}
		keys = append(keys, k)
	}
	if conn != "" {
		keys = append(keys, "Connection")
	}
	if withBody {
		keys = append(keys, "Content-Length")
	}
	if _, ok := h["Date"]; !ok {
		keys = append(keys, "Date")
	}
	slices.Sort(keys)
	for _, k := range keys {
		switch vv, set := h[k]; {
		case k == "Connection":
			out = appendField(out, k, conn)
		case k == "Content-Length":
			out = append(out, "Content-Length: "...)
			out = strconv.AppendInt(out, int64(len(w.body)), 10)
			out = append(out, "\r\n"...)
		case k == "Date" && !set:
			out = append(out, "Date: "...)
			out = time.Now().UTC().AppendFormat(out, http.TimeFormat)
			out = append(out, "\r\n"...)
		case isToken(k):
			for _, v := range vv {
				out = appendField(out, k, v)
			}
		}
	}
	out = append(out, "\r\n"...)
	if withBody && req.Method != http.MethodHead {
		out = append(out, w.body...)
	}
	_, err := w.c.rwc.Write(out)

	clear(keys)
	w.keys = keys[:0]
	w.out, w.body = out[:0], w.body[:0]
	if cap(w.out) > maxKeptBuffer {
		w.out = nil
	}
	if cap(w.body) > maxKeptBuffer {
		w.body = nil
	}
	clear(w.header)
	w.status = 0
	return err
}

// refusal answers a request the server refused before its handler, with a
// plain-text reason, and asks the client to close.
func (w *response) refusal(status int, msg string) {
	w.header.Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	w.Write([]byte(msg))
	w.send(&http.Request{ProtoMajor: 1, ProtoMinor: 1}, false)
}

func appendStatusLine(out []byte, is11 bool, status int) []byte {
	if is11 {
		out = append(out, "HTTP/1.1 "...)
	} else {
		out = append(out, "HTTP/1.0 "...)
	}
	out = strconv.AppendInt(out, int64(status), 10)
	out = append(out, ' ')
	if text := http.StatusText(status); text != "" {
		out = append(out, text...)
	} else {
		out = append(out, "status code "...)
		out = strconv.AppendInt(out, int64(status), 10)
	}
	return append(out, "\r\n"...)
}

// appendField appends one header line; a CR or LF in the value becomes a
// space, so no value can end its line early (net/http's rule).
func appendField(out []byte, k, v string) []byte {
	out = append(out, k...)
	out = append(out, ": "...)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\r' || c == '\n' {
			out = append(out, ' ')
		} else {
			out = append(out, c)
		}
	}
	return append(out, "\r\n"...)
}
