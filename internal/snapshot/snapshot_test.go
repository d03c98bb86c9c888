package snapshot

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden snapshot files")

// TestContainerRoundTrip: randomized sections survive encode/decode with
// identical names and payloads, across many seeded shapes.
func TestContainerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(8)
		want := map[string][]byte{}
		b := NewBuilder()
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("section/%d-%d", trial, i)
			payload := make([]byte, rng.Intn(1<<12))
			rng.Read(payload)
			want[name] = payload
			if err := b.Add(name, payload); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Decode(b.Bytes())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Version() != Version {
			t.Fatalf("trial %d: version %d", trial, s.Version())
		}
		if len(s.Names()) != n {
			t.Fatalf("trial %d: %d sections, want %d", trial, len(s.Names()), n)
		}
		for name, payload := range want {
			got, ok := s.Section(name)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("trial %d: section %q corrupted", trial, name)
			}
		}
	}
}

// TestBuilderRejects: bad names, duplicates and overflow are refused at
// build time.
func TestBuilderRejects(t *testing.T) {
	b := NewBuilder()
	if err := b.Add("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := b.Add(string(make([]byte, maxNameLen+1)), nil); err == nil {
		t.Error("oversized name accepted")
	}
	if err := b.Add("dup", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("dup", nil); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestDecodeRejectsCorruption: every corruption class fails with an
// error, never a panic — truncation, bit flips in header, directory,
// payload and checksums, and garbage.
func TestDecodeRejectsCorruption(t *testing.T) {
	b := NewBuilder()
	b.Add("meta", []byte("hello metadata"))
	b.Add("params", bytes.Repeat([]byte{0xAB}, 256))
	good := b.Bytes()
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}

	t.Run("truncation", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			if _, err := Decode(good[:i]); err == nil {
				t.Fatalf("truncation at %d accepted", i)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			for _, bit := range []byte{0x01, 0x80} {
				mut := append([]byte(nil), good...)
				mut[i] ^= bit
				if _, err := Decode(mut); err == nil {
					t.Fatalf("bit flip at byte %d (mask %02x) accepted", i, bit)
				}
			}
		}
	})
	t.Run("garbage", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 200; trial++ {
			junk := make([]byte, rng.Intn(512))
			rng.Read(junk)
			if _, err := Decode(junk); err == nil && len(junk) > 0 {
				t.Fatalf("random garbage accepted (len %d, trial %d)", len(junk), trial)
			}
		}
	})
	t.Run("oversized-section-claim", func(t *testing.T) {
		// Hand-craft a directory whose size field claims far more than the
		// file holds: must error without allocating the claimed size.
		mut := append([]byte(nil), good...)
		// Directory entry for "meta": magic(6)+ver(2)+count(4)+nameLen(2)+name(4) = 18
		binary.LittleEndian.PutUint64(mut[18:], 1<<60)
		body := mut[:len(mut)-4]
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32Of(body))
		if _, err := Decode(mut); err == nil {
			t.Fatal("oversized section size accepted")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(mut[6:], Version+1)
		body := mut[:len(mut)-4]
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32Of(body))
		if _, err := Decode(mut); err == nil {
			t.Fatal("future version accepted")
		}
	})
}

func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// TestDecodeAcceptsOldVersions: every container version in
// [MinVersion, Version] decodes; version 1 files must keep loading forever.
func TestDecodeAcceptsOldVersions(t *testing.T) {
	b := NewBuilder()
	b.Add("meta", []byte("old bundle"))
	good := b.Bytes()
	for v := MinVersion; v <= Version; v++ {
		mut := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(mut[6:], uint16(v))
		body := mut[:len(mut)-4]
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32Of(body))
		s, err := Decode(mut)
		if err != nil {
			t.Fatalf("version %d rejected: %v", v, err)
		}
		if s.Version() != uint16(v) {
			t.Fatalf("decoded version %d, want %d", s.Version(), v)
		}
	}
	mut := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(mut[6:], MinVersion-1)
	body := mut[:len(mut)-4]
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32Of(body))
	if _, err := Decode(mut); err == nil {
		t.Fatalf("version %d below MinVersion accepted", MinVersion-1)
	}
}

// TestGoldenSnapshotV1 pins backward compatibility with the committed
// version-1 container: it must decode forever even though the writer now
// emits version 2.
func TestGoldenSnapshotV1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(data)
	if err != nil {
		t.Fatalf("version-1 golden rejected: %v", err)
	}
	if s.Version() != 1 {
		t.Fatalf("version-1 golden reports version %d", s.Version())
	}
	meta, _ := s.Section("meta")
	if string(meta) != "golden metadata v1" {
		t.Fatalf("v1 golden meta = %q", meta)
	}
	p, _ := s.Section("params")
	xs, err := NewReader(p).Float64s()
	if err != nil || len(xs) != 5 || xs[3] != math.Pi {
		t.Fatalf("v1 golden params = %v, %v", xs, err)
	}
}

// TestBufferReaderRoundTrip: the primitive codec round-trips randomized
// values bit-exactly, including non-finite floats.
func TestBufferReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var b Buffer
		v := rng.Uint64()
		s := fmt.Sprintf("str-%d-%c", trial, rune('a'+trial%26))
		ss := make([]string, rng.Intn(5))
		for i := range ss {
			ss[i] = fmt.Sprintf("tok%d", rng.Intn(1000))
		}
		xs := make([]float64, rng.Intn(64))
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = math.Inf(1)
			case 1:
				xs[i] = math.NaN()
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		b.Uvarint(v)
		b.String(s)
		b.Strings(ss)
		b.Float64s(xs)

		r := NewReader(b.Bytes())
		gv, err := r.Uvarint()
		if err != nil || gv != v {
			t.Fatalf("Uvarint = %d, %v; want %d", gv, err, v)
		}
		gs, err := r.String()
		if err != nil || gs != s {
			t.Fatalf("String = %q, %v", gs, err)
		}
		gss, err := r.Strings()
		if err != nil || !reflect.DeepEqual(gss, ss) && len(ss) > 0 {
			t.Fatalf("Strings = %v, %v; want %v", gss, err, ss)
		}
		gxs, err := r.Float64s()
		if err != nil || len(gxs) != len(xs) {
			t.Fatalf("Float64s len = %d, %v", len(gxs), err)
		}
		for i := range xs {
			if math.Float64bits(gxs[i]) != math.Float64bits(xs[i]) {
				t.Fatalf("Float64s[%d] = %x, want %x (not bit-exact)", i, gxs[i], xs[i])
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	}
}

// TestReaderRejectsTruncation: every prefix of a valid payload fails
// cleanly somewhere in the read sequence, with bounded allocations.
func TestReaderRejectsTruncation(t *testing.T) {
	var b Buffer
	b.Uvarint(300)
	b.String("metadata string")
	b.Strings([]string{"a", "bb", "ccc"})
	b.Float64s([]float64{1.5, -2.25, math.Pi})
	full := b.Bytes()
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		var err error
		if _, e := r.Uvarint(); e != nil {
			continue
		}
		if _, err = r.String(); err != nil {
			continue
		}
		if _, err = r.Strings(); err != nil {
			continue
		}
		if _, err = r.Float64s(); err == nil {
			t.Fatalf("truncation at %d read cleanly", i)
		}
	}

	// A count far beyond the payload must error before allocating.
	var huge Buffer
	huge.Uvarint(1 << 50)
	if _, err := NewReader(huge.Bytes()).Float64s(); err == nil {
		t.Fatal("oversized float64 count accepted")
	}
	if _, err := NewReader(huge.Bytes()).Strings(); err == nil {
		t.Fatal("oversized string count accepted")
	}
}

// TestGoldenSnapshot pins the on-disk byte format: a fixed container must
// decode identically forever. Regenerate with -update after deliberate
// format changes (which must also bump Version).
func TestGoldenSnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "golden.snap")
	b := NewBuilder()
	b.Add("meta", []byte("golden metadata v1"))
	var params Buffer
	params.Float64s([]float64{0, 1.5, -2.25, math.Pi, math.Inf(-1)})
	b.Add("params", params.Bytes())

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(data, b.Bytes()) {
		t.Fatal("golden snapshot bytes drifted from the writer; format change requires a Version bump and -update")
	}
	if !SniffMagic(data) {
		t.Fatal("SniffMagic rejected the golden file")
	}
	s, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Section("meta")
	if string(meta) != "golden metadata v1" {
		t.Fatalf("golden meta = %q", meta)
	}
	p, _ := s.Section("params")
	xs, err := NewReader(p).Float64s()
	if err != nil || len(xs) != 5 || xs[3] != math.Pi {
		t.Fatalf("golden params = %v, %v", xs, err)
	}
}
