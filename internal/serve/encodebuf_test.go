package serve

import (
	"io"
	"net/http"
	"testing"

	"webbrief/internal/wb"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestEncodeBufReturnedAllocs gates both borrowers of encodeBufPool with the
// buffer going back to the pool. Each measures 1 allocation: the
// Content-Type header value in respondOutcome, the RFC 3339 time string in
// logAccess. A borrower that drops its putEncodeBuf builds a new buffer, its
// backing array and a json.Encoder on every call, 3 more, and fails here.
func TestEncodeBufReturnedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random")
	}
	srv := NewFromPool(PoolOf(lift(&okReplica{})), Config{AccessLog: io.Discard})
	defer srv.BeginShutdown()
	brief := &wb.Brief{Topic: []string{"novel", "edition"}, Attributes: [][]string{{"$", "9.99"}}, Sections: []int{1, 0}}
	w := &hitWriter{header: http.Header{}}
	lg := &accessEntry{Method: http.MethodPost, Path: "/brief"}
	for _, tc := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"respondOutcome", 2.5, func() { srv.respondOutcome(w, lg, pipelineOutcome{brief: brief}, nil) }},
		{"logAccess", 2.5, func() { srv.logAccess(lg) }},
	} {
		tc.run() // the pool's first buffer
		allocs := testing.AllocsPerRun(200, tc.run)
		t.Logf("%s: %.1f allocs", tc.name, allocs)
		if allocs > tc.limit {
			t.Errorf("%s allocates %.1f per call, want <= %.1f: is its encodeBuf going back to the pool?", tc.name, allocs, tc.limit)
		}
	}
}
