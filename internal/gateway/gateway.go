// Package gateway is the sharded front tier of the briefing service: an
// HTTP proxy that consistent-hash routes briefing requests by page domain
// across a fleet of wbserve backends, with per-backend bounded keep-alive
// connections it owns itself (upstream.go), circuit breakers, health
// probing, and fleet-wide hot model reload.
//
// Routing keys on the same domain extraction the backends' cache policy
// uses (briefcache.SrcDomain of the ?src= query parameter), so one
// domain's pages concentrate on one backend — its content-addressed cache
// and any per-domain policy see the domain's whole request stream instead
// of 1/N of it. Requests without a ?src= attribution key on the body hash,
// which still sends repeat posts of one page to one backend's cache.
//
// Liveness is layered over the static ring: a backend that fails
// Threshold consecutive exchanges is ejected (breaker opens, its keys fail
// over to the next candidate on the ring), probed against /healthz after a
// cooldown, and readmitted once probes pass — at which point its keys
// route home again. The ring itself never changes, so a flapping backend
// cannot churn the whole keyspace.
package gateway

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"webbrief/internal/breaker"
	"webbrief/internal/briefcache"
	"webbrief/internal/httpwire"
	"webbrief/internal/metrics"
)

// probeTimeout is the deadline of one /healthz readmission probe.
const probeTimeout = 2 * time.Second

// retryAfter is the Retry-After hint, in seconds, on the gateway's own 503s.
const retryAfter = "1"

// reloadTimeout is the per-backend deadline of one /admin/reload while the
// gateway drives a fleet reload: a backend builds and warms a whole shadow
// pool inside it.
const reloadTimeout = 60 * time.Second

// maxRequestIDBytes is the longest inbound request ID the gateway honours.
const maxRequestIDBytes = 64

// Config configures a Gateway. Zero values get defaults from
// withDefaults.
type Config struct {
	Backends []string // backend addresses, "host:port" or "http://host:port"

	MaxConnsPerBackend int           // concurrent relays per backend (0 = 32)
	BreakerThreshold   int           // consecutive failures that eject a backend (0 = 3)
	BreakerCooldown    time.Duration // ejection → first readmission probe (0 = 500ms)
	ProbeInterval      time.Duration // health probe cadence for ejected backends (0 = 100ms)
	Timeout            time.Duration // per-request deadline, all attempts included (0 = none)
	MaxBodyBytes       int64         // request body limit, and the ceiling on a relayed reply (0 = httpwire.DefaultMaxBodyBytes)
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.MaxConnsPerBackend <= 0 {
		c.MaxConnsPerBackend = 32
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = httpwire.DefaultMaxBodyBytes
	}
	return c
}

// backend is one wbserve process behind the gateway.
type backend struct {
	name  string        // canonical host:port — the ring member name
	up    *upstream     // its keep-alive connections and the exchange over them
	slots chan struct{} // bounded connection pool: one token per in-flight relay
	br    *breaker.Breaker

	requests   atomic.Int64 // relay attempts sent to this backend
	errors     atomic.Int64 // attempts that failed
	generation atomic.Int64 // model generation last reported by a reload (0 = unknown)
}

// Gateway is the sharded briefing front tier. Mount it directly (it is an
// http.Handler routing /brief, /healthz, /metrics and /admin/reload).
type Gateway struct {
	cfg      Config
	metrics  *Metrics
	ring     *Ring
	backends map[string]*backend
	names    []string // sorted — the deterministic iteration order everywhere
	mux      *http.ServeMux

	ready        atomic.Bool
	fleetGen     atomic.Int64 // min generation across backends after a fleet reload
	fleetReloads atomic.Int64
	reloading    atomic.Bool // one fleet reload drive at a time

	shutdownCh chan struct{}
	probeDone  chan struct{}

	idPrefix uint64        // this process's random high half of every minted request ID
	idSeq    atomic.Uint64 // the low half: one per minted ID
}

// New builds a Gateway over the configured backend fleet and starts its
// health prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		name := canonicalBackend(raw)
		if name == "" || !headSafe(name, false) {
			return nil, fmt.Errorf("gateway: bad backend address %q", raw)
		}
		names = append(names, name)
	}
	ring := NewRing(names, DefaultVNodes)
	if ring.Size() == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:        cfg,
		metrics:    newMetrics(),
		ring:       ring,
		backends:   make(map[string]*backend, ring.Size()),
		names:      ring.Backends(),
		mux:        http.NewServeMux(),
		shutdownCh: make(chan struct{}),
		probeDone:  make(chan struct{}),
	}
	for _, name := range g.names {
		g.backends[name] = &backend{
			name:  name,
			up:    &upstream{addr: name},
			slots: make(chan struct{}, cfg.MaxConnsPerBackend),
			br:    breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown, breaker.ReadmitProbes),
		}
	}
	var prefix [4]byte
	rand.Read(prefix[:])
	g.idPrefix = uint64(binary.BigEndian.Uint32(prefix[:])) << 32
	g.ready.Store(true)
	g.mux.HandleFunc("/brief", g.handleBrief)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/admin/reload", g.handleReload)
	go g.probeLoop()
	return g, nil
}

// canonicalBackend reduces a backend flag value to its host:port ring
// name: scheme and trailing path stripped, everything else untouched.
func canonicalBackend(raw string) string {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Ring exposes the routing ring (tests, operator tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// BeginShutdown flips /healthz and /brief to draining, stops the health
// prober and closes every idle upstream connection. In-flight relays finish
// normally and close theirs.
func (g *Gateway) BeginShutdown() {
	if g.ready.CompareAndSwap(true, false) {
		close(g.shutdownCh)
		<-g.probeDone
		for _, name := range g.names {
			g.backends[name].up.close()
		}
	}
}

// RouteKey computes the consistent-hash key for one request: the page's
// source domain when the client attributes it (?src=, same extraction as
// the backend cache's policy key), else a hash of the posted body — repeat
// posts of one page still land on one backend's cache.
func RouteKey(rawQuery string, src string, body []byte) string {
	if rawQuery != "" {
		if d := briefcache.SrcDomain(src); d != "" {
			return "domain:" + d
		}
	}
	return "body:" + strconv.FormatUint(hashKey(string(body)), 16)
}

// requestID is the briefing's request ID: the client's X-Request-Id when it
// is 1–maxRequestIDBytes bytes that headSafe accepts, else a minted one —
// the process prefix and a counter, 16 hex digits.
func (g *Gateway) requestID(r *http.Request) string {
	if id := r.Header.Get(httpwire.RequestIDHeader); id != "" && len(id) <= maxRequestIDBytes && headSafe(id, false) {
		return id
	}
	const digits = "0123456789abcdef"
	var b [16]byte
	v := g.idPrefix | g.idSeq.Add(1)&(1<<32-1)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&15]
		v >>= 4
	}
	return string(b[:])
}

// handleBrief is the proxy path: validate, pick the key's candidate
// backends off the ring, and relay with failover. Every response, the
// gateway's own refusals included, carries the request ID.
func (g *Gateway) handleBrief(w http.ResponseWriter, r *http.Request) {
	g.metrics.Requests.Begin()
	id := g.requestID(r)
	w.Header().Set(httpwire.RequestIDHeader, id)

	if !g.ready.Load() {
		g.refuse(w, Draining, http.StatusServiceUnavailable, "gateway is draining")
		return
	}
	if r.Method != http.MethodPost {
		g.refuse(w, BadMethod, http.StatusMethodNotAllowed, "POST the page HTML as the request body")
		return
	}
	body, err := httpwire.Read(r.Body, r.ContentLength, g.cfg.MaxBodyBytes)
	if errors.Is(err, httpwire.ErrTooLarge) {
		g.refuse(w, TooLarge, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", g.cfg.MaxBodyBytes))
		return
	}
	if err != nil {
		g.refuse(w, BadRequest, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	// The query and Content-Type are copied verbatim into the head of every
	// relay (upstream.go): refuse here what could end a line there.
	if !headSafe(r.URL.RawQuery, false) || !headSafe(r.Header.Get("Content-Type"), true) {
		g.refuse(w, BadRequest, http.StatusBadRequest, "control character in query or Content-Type")
		return
	}

	ctx := r.Context()
	if g.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.Timeout)
		defer cancel()
	}

	key := RouteKey(r.URL.RawQuery, briefcache.SrcParam(r.URL.RawQuery), body)
	g.proxy(w, ctx, r, id, body, g.ring.Candidates(key, g.ring.Size()))
}

// proxy relays one validated request across the key's candidate backends
// in ring order. Candidates with an open breaker are skipped (rerouted);
// candidates at their connection cap are spilled past without blocking;
// a retryable failure moves to the next candidate. If every candidate was
// at capacity, the request waits (under its deadline) for the preferred
// one rather than failing — bounded pools shed load by queueing at the
// gateway, not by erroring.
func (g *Gateway) proxy(w http.ResponseWriter, ctx context.Context, r *http.Request, id string, body []byte, cands []string) {
	var fallback *backend // first routable candidate, for the all-busy wait
	attempts := 0
	for _, name := range cands {
		b := g.backends[name]
		if !b.br.Allow(time.Now()) {
			g.metrics.Rerouted.Add(1)
			continue
		}
		if fallback == nil {
			fallback = b
		}
		select {
		case b.slots <- struct{}{}:
		default:
			continue // at its connection cap; spill to the next candidate
		}
		attempts++
		relayed := g.attemptOn(w, ctx, b, r, id, body)
		<-b.slots
		if relayed {
			return
		}
		if ctx.Err() != nil {
			break
		}
	}
	if attempts == 0 && fallback != nil && ctx.Err() == nil {
		select {
		case fallback.slots <- struct{}{}:
			attempts++
			relayed := g.attemptOn(w, ctx, fallback, r, id, body)
			<-fallback.slots
			if relayed {
				return
			}
		case <-ctx.Done():
		}
	}

	if err := ctx.Err(); err != nil {
		g.failCtx(w, err)
		return
	}
	if attempts > 0 {
		g.refuse(w, BackendFailure, http.StatusBadGateway, "all briefing backends failed")
		return
	}
	g.refuse(w, NoBackend, http.StatusServiceUnavailable, "no briefing backend available")
}

// refuse ends a request the gateway answers itself: its member of the
// requests_total partition and its status in one call — a status cannot be
// written without an outcome. The 503s (draining, no backend) tell the client
// to come back and carry a Retry-After.
func (g *Gateway) refuse(w http.ResponseWriter, o metrics.Outcome[requestsTotal], status int, msg string) {
	g.metrics.Requests.End(o)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	http.Error(w, msg, status)
}

// retryableStatus reports whether a backend status should fail over to the
// next candidate: the backend is broken (500/502), draining (503), or
// shedding (429) — another backend may well answer. Everything else
// (success, client errors, the backend's own 504) relays as-is.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return true
	}
	return false
}

// attemptOn relays the request once on b, reporting whether a response was
// written (true ends the request; false means a retryable failure and the
// caller moves on). Every call bumps backend_requests_total and exactly
// one of its two outcomes.
func (g *Gateway) attemptOn(w http.ResponseWriter, ctx context.Context, b *backend, r *http.Request, id string, body []byte) bool {
	m := g.metrics
	m.BackendRequests.Begin()
	b.requests.Add(1)

	// The reply is buffered whole, under the same ceiling as the request: a
	// backend that answers with more than a page's worth is broken.
	rep, err := b.up.exchange(ctx, request{
		method: http.MethodPost, path: "/brief", query: r.URL.RawQuery,
		contentType: r.Header.Get("Content-Type"), id: id, body: body, limit: g.cfg.MaxBodyBytes,
	})
	if err != nil {
		// A failure after the client's own deadline or disconnect is the
		// client's, not the backend's — count the attempt, spare the breaker.
		g.attemptFailed(b, ctx.Err() == nil)
		return false
	}
	if retryableStatus(rep.status) {
		g.attemptFailed(b, true)
		return false
	}

	g.attemptOK(b)
	m.Requests.End(Proxied)
	if ct := rep.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := rep.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
	return true
}

// attemptOK settles one attempt as clean, driving the breaker (a success
// may readmit a half-open backend).
func (g *Gateway) attemptOK(b *backend) {
	g.metrics.BackendRequests.End(BackendOK)
	if b.br.Success() {
		g.metrics.Readmissions.Add(1)
	}
}

// attemptFailed settles one attempt as failed. blame drives the breaker;
// failures caused by the client's own deadline or disconnect count the
// attempt without penalising the backend.
func (g *Gateway) attemptFailed(b *backend, blame bool) {
	g.metrics.BackendRequests.End(BackendError)
	b.errors.Add(1)
	if blame && b.br.Fail(time.Now()) {
		g.metrics.Ejections.Add(1)
	}
}

// failCtx maps a context error to its response: 504 for an expired
// deadline; a client that disconnected gets nothing (nginx's 499 case).
func (g *Gateway) failCtx(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		g.refuse(w, Timeout, http.StatusGatewayTimeout, "briefing deadline exceeded")
		return
	}
	g.metrics.Requests.End(Canceled)
}

// handleHealthz aggregates fleet health: 200 while the gateway is ready
// and at least one backend is routable (breaker not open), 503 otherwise.
// The body lists every backend's breaker state.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type backendHealth struct {
		Name    string `json:"name"`
		Breaker string `json:"breaker"`
	}
	type health struct {
		Status   string          `json:"status"`
		Backends int             `json:"backends"`
		Routable int             `json:"routable"`
		Fleet    []backendHealth `json:"fleet"`
	}
	h := health{Status: "ok", Backends: len(g.names)}
	for _, name := range g.names {
		st := g.backends[name].br.State()
		if st != breaker.Open {
			h.Routable++
		}
		h.Fleet = append(h.Fleet, backendHealth{Name: name, Breaker: st.String()})
	}
	code := http.StatusOK
	if h.Routable < h.Backends {
		h.Status = "degraded"
	}
	if h.Routable == 0 {
		h.Status = "unhealthy"
		code = http.StatusServiceUnavailable
	}
	if !g.ready.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

// handleMetrics serves the counter snapshot as JSON.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(g.snapshot())
}

// adminReplyLimit bounds a backend's /healthz or /admin/reload reply.
const adminReplyLimit = 1 << 16

// BackendReload is one backend's row in a fleet reload report: its new
// model generation, or the error that kept it on its old one.
type BackendReload struct {
	Backend    string `json:"backend"`
	Generation int64  `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// FleetReloadReport summarises one rolling fleet reload drive.
type FleetReloadReport struct {
	FleetGeneration int64           `json:"fleet_generation"`
	Reloaded        int             `json:"reloaded"`
	Backends        []BackendReload `json:"backends"`
}

// ErrReloadInProgress is returned by FleetReload when another drive holds
// the fleet: reloads roll one backend at a time, so two concurrent drives
// would double the fleet's warming capacity loss.
var ErrReloadInProgress = errors.New("a fleet reload is already in progress")

// FleetReload drives a rolling fleet-wide hot model reload: each backend's
// /admin/reload in sorted order, one at a time, so at most one backend is
// warming a shadow pool while the rest serve at full capacity. The report
// carries each backend's new generation (or error) and the fleet
// generation — the minimum across backends that have ever reloaded. This
// is the SIGHUP path of cmd/wbgate; POST /admin/reload is the HTTP form.
func (g *Gateway) FleetReload(ctx context.Context) (FleetReloadReport, error) {
	if !g.reloading.CompareAndSwap(false, true) {
		return FleetReloadReport{}, ErrReloadInProgress
	}
	defer g.reloading.Store(false)

	rep := FleetReloadReport{Backends: make([]BackendReload, 0, len(g.names))}
	for _, name := range g.names {
		b := g.backends[name]
		gen, err := g.reloadBackend(ctx, b)
		if err != nil {
			rep.Backends = append(rep.Backends, BackendReload{Backend: name, Error: err.Error()})
			continue
		}
		b.generation.Store(gen)
		rep.Backends = append(rep.Backends, BackendReload{Backend: name, Generation: gen})
		rep.Reloaded++
	}
	g.fleetReloads.Add(1)
	g.fleetGen.Store(g.minGeneration())
	rep.FleetGeneration = g.fleetGen.Load()
	return rep, nil
}

// handleReload is the HTTP form of FleetReload. Like the backend's own
// endpoint, it touches none of the /brief outcome counters: admin traffic
// is not briefing traffic.
func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to reload the fleet", http.StatusMethodNotAllowed)
		return
	}
	rep, err := g.FleetReload(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	code := http.StatusOK
	if rep.Reloaded == 0 {
		code = http.StatusBadGateway
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(rep)
}

// reloadBackend POSTs one backend's /admin/reload and decodes the new
// generation.
func (g *Gateway) reloadBackend(ctx context.Context, b *backend) (int64, error) {
	ctx, cancel := context.WithTimeout(ctx, reloadTimeout)
	defer cancel()
	rep, err := b.up.exchange(ctx, request{method: http.MethodPost, path: "/admin/reload", limit: adminReplyLimit})
	if err != nil {
		return 0, fmt.Errorf("backend %s: %w", b.name, err)
	}
	if rep.status != http.StatusOK {
		return 0, fmt.Errorf("backend %s: reload status %d: %s", b.name, rep.status, strings.TrimSpace(string(rep.body)))
	}
	var out struct {
		Generation int64 `json:"generation"`
	}
	if err := json.Unmarshal(rep.body, &out); err != nil {
		return 0, fmt.Errorf("backend %s: reload response: %w", b.name, err)
	}
	return out.Generation, nil
}

// minGeneration is the fleet generation: the minimum model generation
// across backends that have reported one (0 while any backend has never
// reloaded through this gateway).
func (g *Gateway) minGeneration() int64 {
	var minGen int64
	for i, name := range g.names {
		gen := g.backends[name].generation.Load()
		if i == 0 || gen < minGen {
			minGen = gen
		}
	}
	return minGen
}

// probeLoop is the re-admission prober: every ProbeInterval it probes each
// non-closed backend's /healthz (once past its breaker cooldown) and feeds
// the result to the breaker. The same tick retires every backend's
// long-idle upstream connections. It exits on shutdown.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.shutdownCh:
			return
		case <-ticker.C:
		}
		for _, name := range g.names {
			b := g.backends[name]
			b.up.reap(time.Now())
			if b.br.State() == breaker.Closed {
				continue
			}
			if !b.br.Allow(time.Now()) {
				continue // still cooling down
			}
			g.metrics.Probes.Add(1)
			if g.probeBackend(b) {
				if b.br.Success() {
					g.metrics.Readmissions.Add(1)
				}
			} else {
				b.br.Fail(time.Now())
			}
		}
	}
}

// probeBackend GETs one backend's /healthz under the probe deadline.
func (g *Gateway) probeBackend(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	rep, err := b.up.exchange(ctx, request{method: http.MethodGet, path: "/healthz", limit: adminReplyLimit})
	return err == nil && rep.status == http.StatusOK
}
