package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a scriptable stand-in for one wbserve process: it serves
// /brief, /healthz and /admin/reload, and can be killed (connections
// hijacked and closed — the TCP signature of a dead process), made to
// fail briefs with garbage 500s, slowed, or made to refuse reloads.
type fakeBackend struct {
	ts   *httptest.Server
	name string // host:port

	briefs     atomic.Int64
	generation atomic.Int64
	down       atomic.Bool  // kill switch: every endpoint slams the connection
	failBriefs atomic.Bool  // /brief answers 500 + garbage
	reloadErr  atomic.Bool  // /admin/reload answers 500
	slow       atomic.Int64 // per-brief sleep, nanoseconds
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.generation.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("/brief", f.handleBrief)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/admin/reload", f.handleReload)
	f.ts = httptest.NewServer(mux)
	f.name = strings.TrimPrefix(f.ts.URL, "http://")
	t.Cleanup(f.ts.Close)
	return f
}

// die hijacks and closes the connection when the backend is down,
// reporting whether it did — a dead process, not a graceful error.
func (f *fakeBackend) die(w http.ResponseWriter) bool {
	if !f.down.Load() {
		return false
	}
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
	return true
}

func (f *fakeBackend) handleBrief(w http.ResponseWriter, r *http.Request) {
	if f.die(w) {
		return
	}
	if d := f.slow.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	io.Copy(io.Discard, r.Body)
	if f.failBriefs.Load() {
		http.Error(w, "\x00\xffgarbage not json", http.StatusInternalServerError)
		return
	}
	f.briefs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"backend\":%q,\"generation\":%d}\n", f.name, f.generation.Load())
}

func (f *fakeBackend) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if f.die(w) {
		return
	}
	w.Write([]byte(`{"status":"ok"}`))
}

func (f *fakeBackend) handleReload(w http.ResponseWriter, _ *http.Request) {
	if f.die(w) {
		return
	}
	if f.reloadErr.Load() {
		http.Error(w, "bundle read failed", http.StatusInternalServerError)
		return
	}
	gen := f.generation.Add(1)
	fmt.Fprintf(w, "{\"generation\":%d,\"replicas\":2}\n", gen)
}

// newTestGateway boots n fake backends and a gateway over them with
// chaos-friendly timings, returning the gateway, its HTTP server, and the
// backends keyed by ring name.
func newTestGateway(t *testing.T, n int, mutate func(*Config)) (*Gateway, *httptest.Server, map[string]*fakeBackend) {
	t.Helper()
	byName := make(map[string]*fakeBackend, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		f := newFakeBackend(t)
		byName[f.name] = f
		addrs = append(addrs, f.name)
	}
	cfg := Config{
		Backends:         addrs,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		ProbeInterval:    5 * time.Millisecond,
		Timeout:          5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.BeginShutdown)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts, byName
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends one briefing through the gateway, returning status, body.
func post(t *testing.T, url, query, html string) (int, []byte) {
	t.Helper()
	target := url + "/brief"
	if query != "" {
		target += "?" + query
	}
	resp, err := http.Post(target, "text/html", strings.NewReader(html))
	if err != nil {
		t.Fatalf("POST %s: %v", target, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// servedBy decodes which backend answered.
func servedBy(t *testing.T, body []byte) string {
	t.Helper()
	var out struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	return out.Backend
}

// domainOwnedBy finds a domain the ring assigns to the given backend.
func domainOwnedBy(t *testing.T, r *Ring, backend string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		d := fmt.Sprintf("site-%d.example", i)
		if r.owner("domain:"+d) == backend {
			return d
		}
	}
	t.Fatalf("no domain of 10000 routes to %s", backend)
	return ""
}

// TestGatewayRoutesByDomain: requests attributed to one domain all land on
// the ring's backend for that domain; unattributed requests with one body
// also stick to a single backend (the body-hash key).
func TestGatewayRoutesByDomain(t *testing.T) {
	g, ts, backends := newTestGateway(t, 3, nil)
	for i := 0; i < 5; i++ {
		domain := fmt.Sprintf("site-%d.example", i)
		want := g.Ring().owner("domain:" + domain)
		for rep := 0; rep < 6; rep++ {
			status, body := post(t, ts.URL, "src=https://"+domain+"/some/page", "<html><body>p</body></html>")
			if status != http.StatusOK {
				t.Fatalf("domain %s rep %d: status %d", domain, rep, status)
			}
			if got := servedBy(t, body); got != want {
				t.Fatalf("domain %s rep %d served by %s, ring says %s", domain, rep, got, want)
			}
		}
	}
	const page = "<html><body>unattributed page</body></html>"
	first := ""
	for rep := 0; rep < 10; rep++ {
		status, body := post(t, ts.URL, "", page)
		if status != http.StatusOK {
			t.Fatalf("unattributed rep %d: status %d", rep, status)
		}
		got := servedBy(t, body)
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("identical body bounced between backends: %s then %s", first, got)
		}
	}
	var total int64
	for _, f := range backends {
		total += f.briefs.Load()
	}
	if want := int64(5*6 + 10); total != want {
		t.Fatalf("backends served %d briefs, want %d", total, want)
	}
}

// TestGatewayFailoverAndBreaker: the owner of a domain starts failing; its
// keys fail over (clients keep getting 200s), the breaker opens after the
// threshold (one ejection), open-state candidates are skipped (rerouted),
// and once the backend heals the prober readmits it and its keys route
// home — ejections == readmissions.
func TestGatewayFailoverAndBreaker(t *testing.T) {
	g, ts, backends := newTestGateway(t, 2, nil)
	victimName := g.Ring().Backends()[0]
	victim := backends[victimName]
	domain := domainOwnedBy(t, g.Ring(), victimName)
	query := "src=" + domain

	// Healthy baseline: the domain lands on its owner.
	status, body := post(t, ts.URL, query, "<html><body>x</body></html>")
	if status != http.StatusOK || servedBy(t, body) != victimName {
		t.Fatalf("baseline: status %d, served by %s, want %s", status, servedBy(t, body), victimName)
	}

	victim.failBriefs.Store(true)
	// Every request still succeeds by failing over; after
	// BreakerThreshold (2) failed attempts the victim is ejected.
	for i := 0; i < 6; i++ {
		status, body := post(t, ts.URL, query, "<html><body>x</body></html>")
		if status != http.StatusOK {
			t.Fatalf("failover request %d: status %d", i, status)
		}
		if got := servedBy(t, body); got == victimName {
			t.Fatalf("request %d served by the failing backend", i)
		}
	}
	m := g.metrics
	if got := m.Ejections.Load(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}
	if m.Rerouted.Load() == 0 {
		t.Fatal("open breaker never rerouted a candidate")
	}
	if countOf(m.BackendRequests, BackendError) < 2 {
		t.Fatalf("backend errors = %d, want >= threshold", countOf(m.BackendRequests, BackendError))
	}

	// Heal. The prober (cooldown 30ms, 2 clean probes at 5ms cadence)
	// readmits; the domain then routes home.
	victim.failBriefs.Store(false)
	waitCond(t, "victim readmission", func() bool { return m.Readmissions.Load() == 1 })
	waitCond(t, "domain routes home", func() bool {
		status, body := post(t, ts.URL, query, "<html><body>x</body></html>")
		return status == http.StatusOK && servedBy(t, body) == victimName
	})
	if e, r := m.Ejections.Load(), m.Readmissions.Load(); e != r {
		t.Fatalf("after quiesce ejections (%d) != readmissions (%d)", e, r)
	}
	if got, want := g.snapshot().Ring.RebalancesTotal, m.Ejections.Load()+m.Readmissions.Load(); got != want {
		t.Fatalf("rebalances = %d, want ejections+readmissions = %d", got, want)
	}
}

// TestGatewayBoundedConnPool: a single slow backend with a 2-connection
// pool serves 6 concurrent requests — all succeed, and the backend never
// observes more than 2 in flight (the gateway queues the overflow).
func TestGatewayBoundedConnPool(t *testing.T) {
	var active, highWater atomic.Int64
	f := newFakeBackend(t)
	inner := f.ts.Config.Handler
	f.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/brief" {
			cur := active.Add(1)
			defer active.Add(-1)
			for {
				hw := highWater.Load()
				if cur <= hw || highWater.CompareAndSwap(hw, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	})

	g, err := New(Config{
		Backends:           []string{f.name},
		MaxConnsPerBackend: 2,
		Timeout:            5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.BeginShutdown)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/brief", "text/html", strings.NewReader("<html><body>x</body></html>"))
			if err != nil || resp.StatusCode != http.StatusOK {
				failed.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of 6 requests failed against a healthy (slow) backend", failed.Load())
	}
	if hw := highWater.Load(); hw > 2 {
		t.Fatalf("backend saw %d concurrent briefs, pool bound is 2", hw)
	}
}

// TestGatewayHealthzAggregation: /healthz is 200 while any backend is
// routable, degrades with partial ejection, 503s when every breaker is
// open, and 503s as draining after BeginShutdown.
func TestGatewayHealthzAggregation(t *testing.T) {
	g, ts, _ := newTestGateway(t, 2, func(c *Config) {
		c.ProbeInterval = time.Hour // hold breaker states still
		c.BreakerCooldown = time.Hour
	})
	getHealth := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Status   string `json:"status"`
			Routable int    `json:"routable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h.Status
	}
	if code, status := getHealth(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthy fleet: %d %s, want 200 ok", code, status)
	}
	names := g.Ring().Backends()
	now := time.Now()
	for i := 0; i < g.cfg.BreakerThreshold; i++ {
		g.backends[names[0]].br.Fail(now)
	}
	if code, status := getHealth(); code != http.StatusOK || status != "degraded" {
		t.Fatalf("one ejected: %d %s, want 200 degraded", code, status)
	}
	for i := 0; i < g.cfg.BreakerThreshold; i++ {
		g.backends[names[1]].br.Fail(now)
	}
	if code, status := getHealth(); code != http.StatusServiceUnavailable || status != "unhealthy" {
		t.Fatalf("all ejected: %d %s, want 503 unhealthy", code, status)
	}
	g.BeginShutdown()
	if code, status := getHealth(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining: %d %s, want 503 draining", code, status)
	}
}

// TestGatewayReloadDrive: POST /admin/reload rolls a reload across the
// fleet and reports per-backend generations; a second drive with one
// refusing backend still succeeds partially and the fleet generation is
// the minimum.
func TestGatewayReloadDrive(t *testing.T) {
	g, ts, backends := newTestGateway(t, 2, nil)

	if resp, err := http.Get(ts.URL + "/admin/reload"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /admin/reload = %d, want 405", resp.StatusCode)
		}
	}

	drive := func() (int, struct {
		FleetGeneration int64 `json:"fleet_generation"`
		Reloaded        int   `json:"reloaded"`
	}) {
		var out struct {
			FleetGeneration int64 `json:"fleet_generation"`
			Reloaded        int   `json:"reloaded"`
		}
		resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, out := drive()
	if code != http.StatusOK || out.Reloaded != 2 || out.FleetGeneration != 2 {
		t.Fatalf("first drive: code %d %+v, want 200, 2 reloaded, fleet gen 2", code, out)
	}
	snap := g.snapshot()
	if snap.Reload.FleetGeneration != 2 || snap.Reload.FleetReloadsTotal != 1 {
		t.Fatalf("metrics reload block = %+v", snap.Reload)
	}
	for _, b := range snap.Backends {
		if b.Generation != 2 {
			t.Fatalf("backend %s generation = %d, want 2", b.Name, b.Generation)
		}
	}

	// One backend refuses: the drive still rolls the other forward, and
	// the fleet generation pins to the laggard.
	names := g.Ring().Backends()
	backends[names[1]].reloadErr.Store(true)
	code, out = drive()
	if code != http.StatusOK || out.Reloaded != 1 || out.FleetGeneration != 2 {
		t.Fatalf("partial drive: code %d %+v, want 200, 1 reloaded, fleet gen 2", code, out)
	}
}

// TestGatewayRefusals covers the gateway-local outcomes — 405, 413,
// draining 503, all-ejected 503 — and checks the requests_total partition
// reconciles exactly over everything this test sent.
func TestGatewayRefusals(t *testing.T) {
	g, ts, _ := newTestGateway(t, 1, func(c *Config) {
		c.MaxBodyBytes = 64
		c.ProbeInterval = time.Hour
		c.BreakerCooldown = time.Hour
	})

	if resp, err := http.Get(ts.URL + "/brief"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /brief = %d, want 405", resp.StatusCode)
		}
	}

	big := strings.Repeat("x", 200)
	if status, _ := post(t, ts.URL, "", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", status)
	}

	if status, _ := post(t, ts.URL, "", "<html>ok</html>"); status != http.StatusOK {
		t.Fatalf("small body = %d, want 200", status)
	}

	// Eject the only backend: NoBackend 503 with Retry-After.
	name := g.Ring().Backends()[0]
	for i := 0; i < g.cfg.BreakerThreshold; i++ {
		g.backends[name].br.Fail(time.Now())
	}
	resp, err := http.Post(ts.URL+"/brief", "text/html", strings.NewReader("<html>x</html>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("all-ejected = %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	g.BeginShutdown()
	if status, _ := post(t, ts.URL, "", "<html>x</html>"); status != http.StatusServiceUnavailable {
		t.Fatalf("draining = %d, want 503", status)
	}

	snap := g.snapshot()
	sum := sumCounts(snap.Responses)
	if sum != snap.RequestsTotal {
		t.Fatalf("outcome sum %d != requests_total %d: %+v", sum, snap.RequestsTotal, snap.Responses)
	}
	if snap.Responses.Get(BadMethod) != 1 || snap.Responses.Get(TooLarge) != 1 ||
		snap.Responses.Get(NoBackend) != 1 || snap.Responses.Get(Draining) != 1 || snap.Responses.Get(Proxied) != 1 {
		t.Fatalf("unexpected outcome split: %+v", snap.Responses)
	}
	if got := sumCounts(snap.BackendOutcomes); got != snap.BackendRequestsTotal {
		t.Fatalf("backend outcome sum %d != backend_requests_total %d", got, snap.BackendRequestsTotal)
	}
}
