package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// TestMetricsZeroDocumentGolden pins the /metrics document of a fresh
// one-replica server byte for byte: key names, nesting, order and bucket
// bounds. Scrapers (bench/wbload fails a run on a missing key) read these
// keys, so a rename must show up here, in tier-1, first.
func TestMetricsZeroDocumentGolden(t *testing.T) {
	srv := NewFromPool(PoolOf(lift(&okReplica{})), Config{})
	defer srv.BeginShutdown()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics_zero.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("/metrics zero document changed (update testdata/metrics_zero.golden.json and CHANGES.md if intended):\n%s", got)
	}
}
