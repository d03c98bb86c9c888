package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
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

// TestUpstreamLedgerReconciles checks the connection-reuse counters'
// identity per backend, exactly, over a run that takes every path to the
// upstream: relays on fresh and reused connections, a rolling reload, a
// backend killed (failed exchanges, failed redials, probes while ejected),
// its stale connections replayed after it heals, and a readmission.
// Every exchange sent to a backend — relay attempt, probe or reload —
// either dialed or reused, and each stale replay dialed once more:
//
//	dials + reused = requests_total + stale_replays + probes + reloads
func TestUpstreamLedgerReconciles(t *testing.T) {
	g, ts, backends := newTestGateway(t, 2, nil)
	names := g.Ring().Backends()
	victim := backends[names[0]]
	domains := domainsInterleaved(t, g.Ring(), 4)
	m := g.metrics

	round := func() {
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					d := domains[(c*10+j)%len(domains)]
					resp, err := http.Post(ts.URL+"/brief?src="+d, "text/html", strings.NewReader("<p>"+d+"</p>"))
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(c)
		}
		wg.Wait()
	}

	round()
	reloads := int64(0)
	if code, _ := driveFleetReload(t, ts.URL); code != http.StatusOK {
		t.Fatalf("reload drive: %d", code)
	}
	reloads++

	victim.down.Store(true)
	round()
	waitCond(t, "victim ejected and probed", func() bool { return m.Ejections.Load() == 1 && m.Probes.Load() >= 2 })
	if code, _ := driveFleetReload(t, ts.URL); code != http.StatusOK {
		t.Fatalf("reload drive with a dead backend: %d", code)
	}
	reloads++
	victim.down.Store(false)
	waitCond(t, "victim readmitted", func() bool { return m.Readmissions.Load() == 1 })
	round()

	// Stopping the prober freezes every counter; only the victim was ever
	// ejected, so every probe went to it.
	g.BeginShutdown()
	snap := g.snapshot()
	for _, b := range snap.Backends {
		probes := int64(0)
		if b.Name == victim.name {
			probes = snap.ProbesTotal
		}
		got := b.UpstreamDials + b.UpstreamReused
		want := b.Requests + b.UpstreamStaleReplays + probes + reloads
		if got != want {
			t.Errorf("%s: dials %d + reused %d = %d, want requests %d + stale replays %d + probes %d + reloads %d = %d",
				b.Name, b.UpstreamDials, b.UpstreamReused, got, b.Requests, b.UpstreamStaleReplays, probes, reloads, want)
		}
		if b.UpstreamReused == 0 || b.IdleConns != 0 {
			t.Errorf("%s: reused %d, idle %d after shutdown; want reuse and no idle connection", b.Name, b.UpstreamReused, b.IdleConns)
		}
	}
	if snap.ProbesTotal == 0 || snap.Ring.EjectionsTotal != 1 {
		t.Fatalf("run exercised %d probes, %d ejections; want some and 1", snap.ProbesTotal, snap.Ring.EjectionsTotal)
	}
}

// TestGatewayMetricsZeroDocumentGolden pins the /metrics document of a fresh
// gateway over two backends byte for byte: key names, nesting and order.
// Scrapers (bench/wbload fails a run on a missing key) read these keys, so a
// rename must show up here, in tier-1, first. No backend is dialed: a fresh
// gateway probes only ejected backends.
func TestGatewayMetricsZeroDocumentGolden(t *testing.T) {
	g, err := New(Config{Backends: []string{"10.0.0.2:8080", "10.0.0.1:8080"}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.BeginShutdown()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics_zero.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("/metrics zero document changed (update testdata/metrics_zero.golden.json and CHANGES.md if intended):\n%s", got)
	}
}
