package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/wb"
)

// slowReplica briefs with a fixed artificial latency. The soak needs
// replicas whose service time is scheduler-independent: a real forward
// pass is pure CPU, so on a single-core box it runs to completion before
// waiting handler goroutines are even scheduled and the queue never fills.
// Sleeping yields the processor, which is exactly what a briefing under
// true multi-core contention (or any I/O) does.
type slowReplica struct{ delay time.Duration }

func (r *slowReplica) Encode(inst *wb.Instance) *wb.Brief {
	time.Sleep(r.delay)
	return &wb.Brief{Topic: []string{"soak"}}
}
func (r *slowReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// TestServeLoadSoak hammers a deliberately under-provisioned server (one
// slow replica, a 2-deep queue) with far more concurrency than it can
// admit and asserts the overload contract end to end:
//
//   - 429s appear (the queue really is bounded);
//   - no request starves: every client finishes its quota of successful
//     briefings within a bounded number of 429-retries;
//   - the /metrics counters reconcile exactly with the totals the clients
//     observed from the outside.
//
// Skipped under -short; scripts/check.sh runs it race-enabled. The
// trained-model HTTP path is covered by TestServeEndToEnd; here the
// replicas are latency-controlled stubs so overload is reproducible on any
// core count.
func TestServeLoadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("load soak skipped in -short")
	}
	srv := NewFromPool(PoolOf(lift(&slowReplica{delay: 2 * time.Millisecond})),
		Config{QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		clients         = 16
		briefsPerClient = 3
		maxAttempts     = 400 // per needed success; generous, starvation fails the test
	)
	var (
		sent      atomic.Int64 // every HTTP request issued
		succeeded atomic.Int64 // 200s observed
		shed      atomic.Int64 // 429s observed
	)
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	start := make(chan struct{}) // barrier: all clients fire together
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			html := "<p>soak page</p>"
			for got := 0; got < briefsPerClient; got++ {
				ok := false
				for attempt := 0; attempt < maxAttempts; attempt++ {
					status, _, err := postBrief(ts.URL, html)
					if err != nil {
						errs <- err.Error()
						return
					}
					sent.Add(1)
					switch status {
					case http.StatusOK:
						succeeded.Add(1)
						ok = true
					case http.StatusTooManyRequests:
						shed.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					default:
						errs <- "unexpected status"
						return
					}
					break
				}
				if !ok {
					errs <- "client starved: retries exhausted without a briefing"
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	if got, want := succeeded.Load(), int64(clients*briefsPerClient); got != want {
		t.Fatalf("successes %d, want %d", got, want)
	}
	if shed.Load() == 0 {
		t.Fatal("expected 429s past queue depth, saw none: admission control is not bounding load")
	}

	// Server-side counters must reconcile exactly with the client view.
	ms := srv.metrics
	if totalOf(ms.Requests) != sent.Load() {
		t.Fatalf("requests_total=%d, clients sent %d", totalOf(ms.Requests), sent.Load())
	}
	if countOf(ms.Requests, OK) != succeeded.Load() {
		t.Fatalf("ok=%d, clients saw %d", countOf(ms.Requests, OK), succeeded.Load())
	}
	if countOf(ms.Requests, Overload) != shed.Load() {
		t.Fatalf("overload=%d, clients saw %d 429s", countOf(ms.Requests, Overload), shed.Load())
	}
	if totalOf(ms.Requests) != countOf(ms.Requests, OK)+countOf(ms.Requests, Overload) {
		t.Fatalf("counters do not partition: total=%d ok=%d overload=%d",
			totalOf(ms.Requests), countOf(ms.Requests, OK), countOf(ms.Requests, Overload))
	}

	// The model-stage histograms saw exactly one observation per success; the
	// parse histogram one per request, since a page is parsed before admission
	// and a shed request has paid for its parse. The queue never reports
	// residual depth once the storm is over: an executor answers its batch
	// before it gives back the batch's in_flight count, so the last client can
	// finish first, and the check waits for the executor.
	for _, name := range []string{"encode", "decode"} {
		if n := stageOf(ms, name).Count; n != countOf(ms.Requests, OK) {
			t.Fatalf("%s histogram count=%d, want %d", name, n, countOf(ms.Requests, OK))
		}
	}
	if got := stageOf(ms, "parse").Count; got != totalOf(ms.Requests) {
		t.Fatalf("parse histogram count=%d, want %d (one per request)", got, totalOf(ms.Requests))
	}
	waitCond(t, "no residual queued or in-flight request", func() bool { return ms.Queued.Load() == 0 && ms.InFlight.Load() == 0 })
	checkPartitionAtRest(t, ms)

	// The /metrics endpoint agrees with the in-process counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.RequestsTotal != sent.Load() || snap.Responses.Get(Overload) != shed.Load() {
		t.Fatalf("endpoint snapshot total=%d overload=%d, want %d/%d",
			snap.RequestsTotal, snap.Responses.Get(Overload), sent.Load(), shed.Load())
	}
}
