// Package snapshot implements the versioned, checksummed binary container
// webbrief uses to persist trained models and to clone replicas at serve
// time: a flat section table over little-endian slabs that can be written
// once and decoded many times cheaply. It is the only model file format.
//
// Layout (all integers little-endian):
//
//	magic   "WBSNAP"                      6 bytes
//	version uint16                        container format version
//	count   uint32                        number of sections
//	table   count × {                     section directory
//	          nameLen uint16
//	          name    []byte
//	          size    uint64              payload length in bytes
//	          crc     uint32              crc32c of the payload
//	        }
//	payloads                              concatenated, in table order
//	filecrc uint32                        crc32c of everything above
//
// Every length in the directory is validated against the actual buffer
// before any allocation is sized from it, so a truncated, bit-flipped or
// adversarial input fails with an error — never a panic or an outsized
// allocation. Section payload contents are opaque to the container; the
// Buffer/Reader primitives in this package are the intended way to encode
// them.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Magic identifies a snapshot container. It is the first thing in the
// file, so formats can be sniffed with a 6-byte peek.
const Magic = "WBSNAP"

// Version is the container format version this package writes. Version 2
// has the same layout and payload codecs as version 1 (it once marked
// float32 slabs, removed with their only writer); the number stays 2 so
// the bytes of every bundle written since do not move.
const Version = 2

// MinVersion is the oldest container version Decode still accepts.
const MinVersion = 1

const (
	maxSections = 1024
	maxNameLen  = 256
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named payload inside a snapshot.
type Section struct {
	Name    string
	Payload []byte
}

// Builder accumulates sections and serialises them into a container.
type Builder struct {
	sections []Section
	names    map[string]bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{names: make(map[string]bool)}
}

// Add appends a named section. Names must be unique, non-empty and at
// most 256 bytes; the payload is referenced, not copied.
func (b *Builder) Add(name string, payload []byte) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("snapshot: bad section name %q", name)
	}
	if b.names[name] {
		return fmt.Errorf("snapshot: duplicate section %q", name)
	}
	if len(b.sections) >= maxSections {
		return fmt.Errorf("snapshot: too many sections (max %d)", maxSections)
	}
	b.names[name] = true
	b.sections = append(b.sections, Section{Name: name, Payload: payload})
	return nil
}

// Bytes serialises the container.
func (b *Builder) Bytes() []byte {
	size := len(Magic) + 2 + 4
	for _, s := range b.sections {
		size += 2 + len(s.Name) + 8 + 4 + len(s.Payload)
	}
	size += 4 // file crc
	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.sections)))
	for _, s := range b.sections {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Name)))
		out = append(out, s.Name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.Payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.Payload, castagnoli))
	}
	for _, s := range b.sections {
		out = append(out, s.Payload...)
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out
}

// WriteTo serialises the container to w.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// Snapshot is a decoded container. Section payloads alias the input
// buffer; callers that mutate them must copy first.
type Snapshot struct {
	version  uint16
	sections map[string][]byte
	names    []string
}

// Decode parses a serialised container. It validates the magic, version,
// directory bounds, every section checksum and the file checksum; any
// corruption is an error, never a panic.
func Decode(data []byte) (*Snapshot, error) {
	const headerLen = len(Magic) + 2 + 4
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("snapshot: truncated container (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(Magic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("snapshot: file checksum mismatch (got %08x, want %08x)", got, want)
	}
	version := binary.LittleEndian.Uint16(data[len(Magic):])
	if version < MinVersion || version > Version {
		return nil, fmt.Errorf("snapshot: unsupported container version %d (this build reads %d..%d)", version, MinVersion, Version)
	}
	count := binary.LittleEndian.Uint32(data[len(Magic)+2:])
	if count > maxSections {
		return nil, fmt.Errorf("snapshot: section count %d exceeds limit %d", count, maxSections)
	}

	type dirEntry struct {
		name string
		size uint64
		crc  uint32
	}
	off := headerLen
	dir := make([]dirEntry, 0, count)
	var total uint64
	for i := uint32(0); i < count; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("snapshot: truncated directory at section %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if nameLen == 0 || nameLen > maxNameLen || off+nameLen+8+4 > len(body) {
			return nil, fmt.Errorf("snapshot: bad directory entry at section %d", i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		size := binary.LittleEndian.Uint64(body[off:])
		off += 8
		crc := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if size > uint64(len(body)) {
			return nil, fmt.Errorf("snapshot: section %q claims %d bytes, file has %d", name, size, len(body))
		}
		total += size
		if total > uint64(len(body)) {
			return nil, fmt.Errorf("snapshot: section sizes exceed file size")
		}
		dir = append(dir, dirEntry{name: name, size: size, crc: crc})
	}
	if uint64(off)+total != uint64(len(body)) {
		return nil, fmt.Errorf("snapshot: payload region is %d bytes, directory claims %d", len(body)-off, total)
	}

	s := &Snapshot{version: version, sections: make(map[string][]byte, len(dir))}
	for _, e := range dir {
		payload := body[off : off+int(e.size)]
		off += int(e.size)
		if got := crc32.Checksum(payload, castagnoli); got != e.crc {
			return nil, fmt.Errorf("snapshot: section %q checksum mismatch (got %08x, want %08x)", e.name, got, e.crc)
		}
		if _, dup := s.sections[e.name]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", e.name)
		}
		s.sections[e.name] = payload
		s.names = append(s.names, e.name)
	}
	return s, nil
}

// Version reports the container format version of a decoded snapshot.
func (s *Snapshot) Version() uint16 { return s.version }

// Section returns a named payload. The bytes alias the decoded buffer.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	p, ok := s.sections[name]
	return p, ok
}

// Names lists the section names in sorted order.
func (s *Snapshot) Names() []string {
	out := append([]string(nil), s.names...)
	sort.Strings(out)
	return out
}

// SniffMagic reports whether data begins with the snapshot magic, so a
// loader can tell a file that is not a snapshot from a corrupted one.
func SniffMagic(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}
