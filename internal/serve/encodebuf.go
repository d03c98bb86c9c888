package serve

import (
	"bytes"
	"encoding/json"
	"sync"
)

// encodeBuf pairs a byte buffer with a JSON encoder writing into it, pooled
// so the HTTP layer's response marshalling and access-log lines stop
// allocating a fresh buffer per request. json.Encoder.Encode appends the
// same trailing newline the old Marshal-then-append path produced, so the
// bytes on the wire are unchanged.
type encodeBuf struct {
	buf    bytes.Buffer
	enc    *json.Encoder
	stages []byte // an access line's stages_ms object
}

var encodeBufPool = sync.Pool{New: func() any {
	e := &encodeBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// getEncodeBuf returns an empty pooled buffer. Pair with putEncodeBuf; the
// buffer's bytes must not be retained past it.
func getEncodeBuf() *encodeBuf { return encodeBufPool.Get().(*encodeBuf) }

// putEncodeBuf resets and recycles a buffer.
func putEncodeBuf(e *encodeBuf) {
	e.buf.Reset()
	encodeBufPool.Put(e)
}
