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

// stageOf is one latency_ms stage ("total" included) of m, by its key.
func stageOf(m *Metrics, key string) metrics.HistogramSnapshot {
	l := m.Latency
	for i, k := range l.Keys {
		if k == key {
			return l.Stages[i].Snapshot()
		}
	}
	if key != "total" {
		panic("no latency stage " + key)
	}
	return l.Total.Snapshot()
}

// checkPartitionAtRest: once every request's clock is observed (the total
// is the last histogram a clock feeds, after the reply is written), latency_ms
// is an exact partition of time, read in nanoseconds from the live
// histograms rather than the rounded document: the stage sums add up to the
// total's sum.
func checkPartitionAtRest(t *testing.T, m *Metrics) {
	t.Helper()
	waitCond(t, "latency_ms.total.count to reach requests_total", func() bool {
		return stageOf(m, "total").Count == totalOf(m.Requests)
	})
	var staged int64
	for _, h := range m.Latency.Stages {
		staged += h.Snapshot().Sum
	}
	if total := m.Latency.Total.Snapshot().Sum; staged != total || total <= 0 {
		t.Fatalf("latency_ms stages sum to %d ns, total to %d ns: not a partition of a positive time", staged, total)
	}
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
