package httpwire

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	_ "net/http/pprof"
	"slices"
	"testing"
	"time"
)

// TestServeDebugProfile is the smoke test of -debug-addr: ServeDebug serves
// net/http/pprof, and a one-second CPU profile fetched from it parses as a
// profile.proto message whose sample types are samples/count and
// cpu/nanoseconds.
func TestServeDebugProfile(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile: %d %q", resp.StatusCode, b)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile gunzip: %v", err)
	}
	sampleTypes, strs, err := profileFields(raw)
	if err != nil {
		t.Fatalf("profile does not parse: %v", err)
	}
	for _, s := range []string{"samples", "count", "cpu", "nanoseconds"} {
		if !slices.Contains(strs, s) {
			t.Errorf("profile's string table %q lacks %q", strs, s)
		}
	}
	if sampleTypes != 2 || len(strs) == 0 || strs[0] != "" {
		t.Errorf("profile has %d sample types and string table %q, want 2 and one that starts empty", sampleTypes, strs)
	}
}

// profileFields walks a profile.proto message's top-level fields, checking
// the wire format of each, and returns how many sample types it declares
// (field 1) and its string table (field 6).
func profileFields(b []byte) (sampleTypes int, strs []string, err error) {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, nil, errors.New("bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			if _, n = binary.Uvarint(b); n <= 0 {
				return 0, nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := map[uint64]int{1: 8, 5: 4}[key&7]
			if len(b) < size {
				return 0, nil, errors.New("short fixed-width field")
			}
			b = b[size:]
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < size {
				return 0, nil, errors.New("bad length-delimited field")
			}
			switch key >> 3 {
			case 1:
				sampleTypes++
			case 6:
				strs = append(strs, string(b[n:n+int(size)]))
			}
			b = b[n+int(size):]
		default:
			return 0, nil, errors.New("unknown wire type")
		}
	}
	return sampleTypes, strs, nil
}
