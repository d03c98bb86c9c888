package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buffer builds a section payload from primitive values. The zero value
// is ready to use; values are appended little-endian.
type Buffer struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (b *Buffer) Bytes() []byte { return b.b }

// Uvarint appends an unsigned varint.
func (b *Buffer) Uvarint(v uint64) { b.b = binary.AppendUvarint(b.b, v) }

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.Uvarint(uint64(len(s)))
	b.b = append(b.b, s...)
}

// Strings appends a count-prefixed string slice.
func (b *Buffer) Strings(ss []string) {
	b.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		b.String(s)
	}
}

// Float64s appends a count-prefixed float64 slab: each value is the
// little-endian IEEE 754 bit pattern, so round trips are bit-exact.
func (b *Buffer) Float64s(xs []float64) {
	b.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		b.b = binary.LittleEndian.AppendUint64(b.b, math.Float64bits(x))
	}
}

// Reader decodes a payload written with Buffer. Every read validates the
// remaining length first, so truncated or corrupted payloads produce
// errors rather than panics, and allocation sizes are always bounded by
// the input length.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: truncated or malformed varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Remaining()) {
		return "", fmt.Errorf("snapshot: string length %d exceeds %d remaining bytes", n, r.Remaining())
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Strings reads a count-prefixed string slice.
func (r *Reader) Strings() ([]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each element costs at least one length byte, so the count is
	// bounded by the remaining payload — no attacker-sized allocation.
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("snapshot: string count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Float64s reads a count-prefixed float64 slab.
func (r *Reader) Float64s() ([]float64, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining())/8 {
		return nil, fmt.Errorf("snapshot: float64 count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out, nil
}
