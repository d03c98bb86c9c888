package httpbody

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestRead covers declared × actual × limit: the declaration sizes the
// buffer and can refuse early, but only the bytes decide what is returned.
func TestRead(t *testing.T) {
	page := strings.Repeat("x", 850)
	big := strings.Repeat("y", 3*presizeMax)
	for _, tc := range []struct {
		name     string
		body     string
		declared int64
		limit    int64
		want     error
	}{
		{"declared exact", page, 850, 4096, nil},
		{"undeclared", page, -1, 4096, nil},
		{"empty", "", 0, 4096, nil},
		{"at the limit", page, 850, 850, nil},
		{"declared short of the body", page, 10, 4096, nil},
		{"declared beyond the body", page, 4000, 4096, nil},
		{"past the presize cap", big, int64(len(big)), 1 << 20, nil},
		{"declared over the limit", page, 5000, 4096, ErrTooLarge},
		{"undeclared over the limit", page, -1, 849, ErrTooLarge},
		{"declared under, body over", page, 100, 849, ErrTooLarge},
	} {
		for _, oneByte := range []bool{false, true} {
			var r io.Reader = strings.NewReader(tc.body)
			if oneByte {
				r = iotest.OneByteReader(r)
			}
			got, err := Read(r, tc.declared, tc.limit)
			if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
			}
			if tc.want == nil && string(got) != tc.body {
				t.Errorf("%s: read %d bytes, want the %d posted", tc.name, len(got), len(tc.body))
			}
			if int64(len(got)) > tc.limit+presizeMax {
				t.Errorf("%s: buffered %d bytes against a limit of %d", tc.name, len(got), tc.limit)
			}
		}
	}

	if _, err := Read(iotest.TimeoutReader(strings.NewReader(page)), 850, 4096); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("reader error not passed through: %v", err)
	}
	if _, err := Read(strings.NewReader(page), 1<<40, 4096); !errors.Is(err, ErrTooLarge) {
		t.Errorf("a 1 TiB declaration: %v, want ErrTooLarge", err)
	}
}

// TestReadPresizes: a declared page costs one buffer, and a declaration far
// over what arrives costs no more than the cap.
func TestReadPresizes(t *testing.T) {
	page := bytes.Repeat([]byte("x"), 850)
	r := bytes.NewReader(page)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(page)
		if b, err := Read(r, 850, 4<<20); err != nil || len(b) != 850 {
			t.Fatalf("read %d bytes, err %v", len(b), err)
		}
	}); n != 1 {
		t.Errorf("a declared 850-byte body took %.0f allocations, want 1", n)
	}
	r.Reset(page)
	if b, _ := Read(r, 4<<20, 4<<20); cap(b) > presizeMax {
		t.Errorf("a 4 MiB declaration over an 850-byte body reserved %d bytes", cap(b))
	}
}
