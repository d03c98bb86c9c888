package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/httpwire/httpwiretest"
)

// fleetReloadResult is the gateway's /admin/reload response shape.
type fleetReloadResult struct {
	FleetGeneration int64 `json:"fleet_generation"`
	Reloaded        int   `json:"reloaded"`
	Backends        []struct {
		Backend    string `json:"backend"`
		Generation int64  `json:"generation"`
		Error      string `json:"error"`
	} `json:"backends"`
}

// driveFleetReload POSTs the gateway's /admin/reload and decodes the
// rolling-reload report.
func driveFleetReload(t *testing.T, url string) (int, fleetReloadResult) {
	t.Helper()
	var out fleetReloadResult
	resp, err := http.Post(url+"/admin/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /admin/reload: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode reload response: %v", err)
	}
	return resp.StatusCode, out
}

// fetchMetrics scrapes the gateway's /metrics endpoint — the same document
// an operator sees, not an in-process shortcut — so the reconciliation
// below checks the exported numbers end to end.
func fetchMetrics(t *testing.T, url string) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return snap
}

// domainsInterleaved returns perOwner domains owned by each ring backend,
// interleaved A,B,C,A,B,C,... so a client walking the list spreads load
// across the whole fleet.
func domainsInterleaved(t *testing.T, r *Ring, perOwner int) []string {
	t.Helper()
	names := r.Backends()
	owned := make(map[string][]string, len(names))
	filled := 0
	for i := 0; filled < len(names); i++ {
		if i >= 100000 {
			t.Fatalf("no %d domains per backend among 100000 candidates", perOwner)
		}
		d := fmt.Sprintf("site-%d.example", i)
		owner := r.owner("domain:" + d)
		if len(owned[owner]) == perOwner {
			continue
		}
		owned[owner] = append(owned[owner], d)
		if len(owned[owner]) == perOwner {
			filled++
		}
	}
	out := make([]string, 0, perOwner*len(names))
	for i := 0; i < perOwner; i++ {
		for _, n := range names {
			out = append(out, owned[n][i])
		}
	}
	return out
}

// TestGatewayChaosSoak is the gate on the sharded serving tier: a fleet of
// three backends takes sustained client load while the test kills one
// backend outright mid-load (connections slammed, the TCP signature of a
// dead process), drives a fleet-wide hot model reload through the gateway
// while that backend is dead, makes a second backend return garbage 500s
// until its breaker ejects it, and slows the third — then heals everything
// and lets the fleet quiesce.
//
// The assertions are the service-level contract of the PR:
//
//   - clients keep succeeding through every fault (≥99% of requests get a
//     200; in practice all of them — failover covers each injected fault),
//   - nothing is dropped: the gateway's requests_total equals the number
//     of requests the clients sent, and its outcome counters partition it
//     exactly,
//   - the attempt ledger balances: backend_requests_total equals
//     backend_ok+backend_error equals the sum of the per-backend request
//     counters, and the per-backend error counters sum to backend_error,
//   - what clients saw is what backends did: proxied responses equal the
//     clients' observed 200s equal the briefs the fake backends served,
//   - the routing set heals: after quiesce every breaker is closed, all
//     backends are routable, and ejections == readmissions exactly (with
//     rebalances counting both), and
//   - the rolling reload drive reports per-backend generations honestly:
//     the dead backend is skipped (fleet generation pins to 0 until it has
//     reloaded), and a post-recovery drive brings it to its first reload
//     while the survivors advance again.
func TestGatewayChaosSoak(t *testing.T) {
	g, ts, backends := newTestGateway(t, 3, nil)
	names := g.Ring().Backends()
	victim, slowpoke, flaky := backends[names[0]], backends[names[1]], backends[names[2]]

	domains := domainsInterleaved(t, g.Ring(), 8)

	const clients, perClient = 8, 80
	const total = clients * perClient
	var served, okCount atomic.Int64
	var failMu sync.Mutex
	var failures []string
	recordFail := func(format string, args ...any) {
		failMu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		failMu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				d := domains[(c*perClient+j)%len(domains)]
				resp, err := http.Post(ts.URL+"/brief?src=https://"+d+"/page", "text/html",
					strings.NewReader("<html><body>soak page for "+d+"</body></html>"))
				if err != nil {
					recordFail("client %d req %d (%s): %v", c, j, d, err)
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						okCount.Add(1)
					} else {
						recordFail("client %d req %d (%s): status %d", c, j, d, resp.StatusCode)
					}
				}
				served.Add(1)
				time.Sleep(500 * time.Microsecond)
			}
		}(c)
	}

	m := g.metrics

	// Fault 1: kill a backend cold mid-load. Its conn-reset failures blame
	// the breaker; failover keeps its keys' clients whole.
	waitCond(t, "warmup traffic", func() bool { return served.Load() >= total/5 })
	victim.down.Store(true)
	waitCond(t, "dead backend ejected", func() bool { return m.Ejections.Load() >= 1 })

	// Fault 2: slow a second backend — load it can still serve, just not
	// quickly. Its breaker must not open.
	slowpoke.slow.Store(int64(2 * time.Millisecond))

	// Drive a fleet reload through the gateway while one backend is dead:
	// the rolling drive reloads the two survivors and reports the corpse as
	// an error, pinning the fleet generation at 0 (it has never reloaded).
	code, rep := driveFleetReload(t, ts.URL)
	if code != http.StatusOK || rep.Reloaded != 2 {
		t.Fatalf("mid-chaos reload drive: code %d, reloaded %d, want 200 and 2 survivors", code, rep.Reloaded)
	}
	if rep.FleetGeneration != 0 {
		t.Fatalf("fleet generation %d with a never-reloaded backend, want 0", rep.FleetGeneration)
	}
	for _, b := range rep.Backends {
		switch b.Backend {
		case victim.name:
			if b.Error == "" {
				t.Fatalf("dead backend %s reported a clean reload: %+v", b.Backend, b)
			}
		default:
			if b.Error != "" || b.Generation != 2 {
				t.Fatalf("survivor %s: %+v, want generation 2", b.Backend, b)
			}
		}
	}

	// Fault 3: a third backend starts answering garbage 500s. Retryable
	// failover keeps clients whole; the breaker ejects it (second ejection).
	flaky.failBriefs.Store(true)
	waitCond(t, "flaky backend ejected", func() bool { return m.Ejections.Load() >= 2 })
	flaky.failBriefs.Store(false)

	// With at least the dead backend's breaker open, /healthz reports a
	// degraded (but serving) fleet.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		var h struct {
			Status string `json:"status"`
		}
		err := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || h.Status != "degraded" {
			t.Fatalf("mid-chaos /healthz = %d %q, want 200 degraded", resp.StatusCode, h.Status)
		}
	}

	// Heal everything mid-load; the tail of the soak sees recovery traffic.
	waitCond(t, "bulk of traffic served", func() bool { return served.Load() >= total*3/5 })
	victim.down.Store(false)
	slowpoke.slow.Store(0)
	wg.Wait()

	// Quiesce: probes readmit the healed backends, every breaker closes,
	// and the rebalance ledger pairs up — ejections == readmissions.
	waitCond(t, "fleet quiesce", func() bool {
		snap := g.snapshot()
		if snap.Ring.RoutableBackends != len(names) {
			return false
		}
		for _, b := range snap.Backends {
			if b.BreakerState != "closed" {
				return false
			}
		}
		return snap.Ring.EjectionsTotal == snap.Ring.ReadmissionsTotal
	})

	// Service level: ≥99% of client requests succeeded (expected: all).
	ok := okCount.Load()
	if ok*100 < int64(total)*99 {
		t.Fatalf("soak success %d/%d is below 99%%; failures: %v", ok, total, failures)
	}
	for _, f := range failures {
		t.Logf("tolerated failure: %s", f)
	}

	// Reconcile the exported /metrics document against everything the
	// clients observed. Exact, not approximate: the partitions must sum.
	snap := fetchMetrics(t, ts.URL)
	if snap.RequestsTotal != total {
		t.Fatalf("requests_total = %d, clients sent %d — requests dropped or double-counted", snap.RequestsTotal, total)
	}
	outcomeSum := sumCounts(snap.Responses)
	if outcomeSum != snap.RequestsTotal {
		t.Fatalf("outcome sum %d != requests_total %d: %+v", outcomeSum, snap.RequestsTotal, snap.Responses)
	}
	if snap.Responses.Get(Proxied) != ok {
		t.Fatalf("proxied = %d, clients observed %d successes", snap.Responses.Get(Proxied), ok)
	}
	if got := sumCounts(snap.BackendOutcomes); got != snap.BackendRequestsTotal {
		t.Fatalf("backend outcome sum %d != backend_requests_total %d", got, snap.BackendRequestsTotal)
	}
	var perBackendReqs, perBackendErrs int64
	for _, b := range snap.Backends {
		perBackendReqs += b.Requests
		perBackendErrs += b.Errors
	}
	if perBackendReqs != snap.BackendRequestsTotal {
		t.Fatalf("per-backend requests sum %d != backend_requests_total %d", perBackendReqs, snap.BackendRequestsTotal)
	}
	if perBackendErrs != snap.BackendOutcomes.Get(BackendError) {
		t.Fatalf("per-backend errors sum %d != backend_error_total %d", perBackendErrs, snap.BackendOutcomes.Get(BackendError))
	}
	if briefs := victim.briefs.Load() + slowpoke.briefs.Load() + flaky.briefs.Load(); briefs != ok {
		t.Fatalf("backends served %d briefs, clients observed %d successes", briefs, ok)
	}

	// Rebalance ledger after quiesce.
	if e, r := snap.Ring.EjectionsTotal, snap.Ring.ReadmissionsTotal; e != r || e < 2 {
		t.Fatalf("ejections %d / readmissions %d, want equal and >= 2", e, r)
	}
	if got, want := snap.Ring.RebalancesTotal, snap.Ring.EjectionsTotal+snap.Ring.ReadmissionsTotal; got != want {
		t.Fatalf("rebalances = %d, want ejections+readmissions = %d", got, want)
	}
	if snap.Ring.RoutableBackends != len(names) {
		t.Fatalf("routable backends = %d after quiesce, want %d", snap.Ring.RoutableBackends, len(names))
	}
	if snap.Ring.ReroutedTotal == 0 {
		t.Fatal("no candidate was ever rerouted around an open breaker during the chaos window")
	}
	if snap.Reload.FleetReloadsTotal != 1 {
		t.Fatalf("fleet reloads = %d before the recovery drive, want 1", snap.Reload.FleetReloadsTotal)
	}

	// Recovery drive: the fleet is whole again, so every backend reloads —
	// the previously dead one for its first time (generation 2), the
	// survivors for their second (generation 3) — and the fleet generation
	// advances to the laggard's.
	code, rep = driveFleetReload(t, ts.URL)
	if code != http.StatusOK || rep.Reloaded != len(names) {
		t.Fatalf("recovery reload drive: code %d, reloaded %d, want 200 and %d", code, rep.Reloaded, len(names))
	}
	if rep.FleetGeneration != 2 {
		t.Fatalf("post-recovery fleet generation = %d, want 2 (the revived backend's first reload)", rep.FleetGeneration)
	}
	final := g.snapshot()
	if final.Reload.FleetGeneration != 2 || final.Reload.FleetReloadsTotal != 2 {
		t.Fatalf("final reload block = %+v, want fleet gen 2, 2 drives", final.Reload)
	}
	for _, b := range final.Backends {
		want := int64(3)
		if b.Name == victim.name {
			want = 2
		}
		if b.Generation != want {
			t.Fatalf("backend %s generation = %d, want %d", b.Name, b.Generation, want)
		}
	}
}

// TestGatewayChaosRawClients drives the gateway, served on httpwire as
// cmd/wbgate serves it, with a page trickled at 1 byte per 5 ms, a 70 KiB
// header and a client gone mid-body. The trickled page is relayed, the 431
// never reaches the handler and counts nothing, the hang-up is a counted
// bad_request that reaches no backend, requests_total stays an exact
// partition, and the goroutine count returns to its baseline.
func TestGatewayChaosRawClients(t *testing.T) {
	g, ts, backends := newTestGateway(t, 1, nil)
	page := "<p>raw client page</p>"
	if status, _ := post(t, ts.URL, "", page); status != http.StatusOK {
		t.Fatalf("warm-up relay: %d", status)
	}
	base := runtime.NumGoroutine()

	if status, body := httpwiretest.RawRequest(t, ts.URL, httpwiretest.RawPostHead(len(page), ""), page, 5*time.Millisecond); status != http.StatusOK {
		t.Fatalf("trickled page: %d %q", status, body)
	}
	if status, body := httpwiretest.RawRequest(t, ts.URL, httpwiretest.RawPostHead(len(page), "X-Pad: "+strings.Repeat("p", 70<<10)+"\r\n"), page, 0); status != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("70 KiB header: %d %q, want 431", status, body)
	}
	httpwiretest.HangUpMidBody(t, ts.URL, 1000)
	m := g.metrics
	waitCond(t, "the mid-body hang-up to be counted", func() bool { return countOf(m.Requests, BadRequest) == 1 })

	total, outcomes := m.Requests.Snapshot()
	if total != 3 || sumCounts(outcomes) != total || countOf(m.Requests, Proxied) != 2 {
		t.Fatalf("requests_total=%d, outcomes sum %d (proxied %d), want 3 = 2 proxied + 1 bad_request",
			total, sumCounts(outcomes), countOf(m.Requests, Proxied))
	}
	for _, f := range backends {
		if f.briefs.Load() != 2 {
			t.Fatalf("backend briefed %d pages, want the 2 relayed", f.briefs.Load())
		}
	}
	waitCond(t, "goroutines back to the baseline", func() bool { return runtime.NumGoroutine() <= base })
}
