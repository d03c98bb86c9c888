package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

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

// slowLog is an access log whose every write takes delay, as a full pipe or
// a slow disk would.
type slowLog struct {
	delay time.Duration
	bytes.Buffer
}

func (l *slowLog) Write(p []byte) (int, error) {
	time.Sleep(l.delay)
	return l.Buffer.Write(p)
}

// TestAccessLogWriteIsTimed: a slow access-log writer's delay shows in
// latency_ms.log and in the total, and not in the line it writes (a line
// cannot carry its own write); without an access log no request reaches the
// log stage.
func TestAccessLogWriteIsTimed(t *testing.T) {
	const delay = 20 * time.Millisecond
	for _, logged := range []bool{false, true} {
		accessLog := &slowLog{delay: delay}
		cfg := Config{}
		if logged {
			cfg.AccessLog = accessLog
		}
		srv := NewFromPool(PoolOf(lift(&okReplica{})), cfg)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/brief", strings.NewReader("<p>logged page</p>")))
		srv.BeginShutdown()
		if rec.Code != http.StatusOK {
			t.Fatalf("logged=%v: status %d", logged, rec.Code)
		}
		checkPartitionAtRest(t, srv.metrics)
		logStage, total := stageOf(srv.metrics, "log"), stageOf(srv.metrics, "total")
		if !logged {
			if logStage.Count != 0 || accessLog.Len() != 0 {
				t.Fatalf("no access log: log stage count %d, %d bytes logged, want 0 and 0", logStage.Count, accessLog.Len())
			}
			continue
		}
		if logStage.Count != 1 || logStage.Sum < int64(delay) || total.Sum < logStage.Sum {
			t.Fatalf("log stage count %d sum %v, total %v: want one log lap of at least %v inside the total",
				logStage.Count, time.Duration(logStage.Sum), time.Duration(total.Sum), delay)
		}
		var line struct {
			StagesMS map[string]float64 `json:"stages_ms"`
			TotalMS  float64            `json:"total_ms"`
		}
		if err := json.Unmarshal(accessLog.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if _, ok := line.StagesMS["log"]; ok || line.TotalMS >= float64(delay)/1e6 {
			t.Fatalf("access line %s carries its own write", accessLog.Bytes())
		}
	}
}
