package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"webbrief/internal/metrics"
)

// countOf, totalOf and sumCounts read a partition the way a scraper can — through
// Snapshot and the JSON form of its outcomes — since internal/metrics exports
// no per-counter accessor.
func countOf[K any](p *metrics.Partition[K], o metrics.Outcome[K]) int64 {
	_, outcomes := p.Snapshot()
	return outcomes.Get(o)
}

func totalOf[K any](p *metrics.Partition[K]) int64 {
	n, _ := p.Snapshot()
	return n
}

// sumCounts adds up every outcome: what the partition's total must equal at
// rest.
func sumCounts[K any](c metrics.Counts[K]) int64 {
	doc, _ := c.MarshalJSON()
	var byKey map[string]int64
	if err := json.Unmarshal(doc, &byKey); err != nil {
		panic(err)
	}
	var sum int64
	for _, n := range byKey {
		sum += n
	}
	return sum
}

// TestMetricsZeroDocumentGolden pins the /metrics document of a fresh
// one-replica server byte for byte: key names, nesting, order and bucket
// bounds. Scrapers (bench/wbload fails a run on a missing key) read these
// keys, so a rename must show up here, in tier-1, first.
func TestMetricsZeroDocumentGolden(t *testing.T) {
	srv := NewFromPool(PoolOf(lift(&okReplica{})), Config{})
	defer srv.BeginShutdown()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics_zero.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("/metrics zero document changed (update testdata/metrics_zero.golden.json and CHANGES.md if intended):\n%s", got)
	}
}
