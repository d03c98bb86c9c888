package snapshot

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode: the container decoder must never panic or allocate beyond
// the input size, whatever bytes it is handed; anything it does accept
// must round-trip through the Builder byte-identically.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("WBSNAPxxxxxxxx"))
	b := NewBuilder()
	b.Add("meta", []byte("seed metadata"))
	var params Buffer
	params.Float64s([]float64{1, 2, 3.5})
	b.Add("params", params.Bytes())
	good := b.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted input: rebuilding from the decoded sections must
		// reproduce the exact bytes (the format has a single encoding).
		rb := NewBuilder()
		for _, name := range s.names {
			payload, _ := s.Section(name)
			if err := rb.Add(name, payload); err != nil {
				t.Fatalf("decoded section %q rejected by builder: %v", name, err)
			}
		}
		if !bytes.Equal(rb.Bytes(), data) {
			t.Fatal("accepted container does not re-encode byte-identically")
		}
	})
}

// FuzzReader: the primitive decoders must survive arbitrary payloads in
// any read order without panicking. The slab decoder reads into a
// destination of order>>2 values (0..63): it must either fill exactly that
// many from exactly 8 bytes each, or refuse and consume no slab byte.
func FuzzReader(f *testing.F) {
	var b Buffer
	b.Uvarint(7)
	b.String("hello")
	b.Strings([]string{"a", "b"})
	b.Float64s([]float64{1.5})
	f.Add(b.Bytes(), uint8(0))
	f.Add(b.Bytes(), uint8(1<<2|1)) // the slab read into 1 value
	f.Add(b.Bytes(), uint8(2<<2|1)) // ... into 2: a length mismatch
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, uint8(3))
	f.Add([]byte{}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, order uint8) {
		r := NewReader(data)
		for i := 0; i < 8 && r.Remaining() > 0; i++ {
			switch (int(order) + i) % 4 {
			case 0:
				r.Uvarint()
			case 1:
				r.String()
			case 2:
				r.Strings()
			default:
				dst := make([]float64, order>>2)
				before := r.Remaining()
				if err := r.Float64sInto(dst); err == nil {
					if slab := before - r.Remaining(); slab < 8*len(dst) || slab > 8*len(dst)+binary.MaxVarintLen64 {
						t.Fatalf("%d values decoded from %d bytes", len(dst), slab)
					}
				} else if r.Remaining() < before-binary.MaxVarintLen64 {
					t.Fatalf("refused slab consumed %d bytes", before-r.Remaining())
				}
			}
		}
	})
}
