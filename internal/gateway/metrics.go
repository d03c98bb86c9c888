package gateway

import "sync/atomic"

// Metrics aggregates the gateway counters exported at /metrics. All fields
// are atomics; the proxy path never takes a lock to record. The same
// exact-partition discipline as the backend's /metrics applies (and the
// same wbcheck metricpart pass plus runtime reflection test enforce it):
// requests_total is partitioned by the client-facing outcome counters, and
// backend_requests_total — the per-attempt total, which exceeds
// requests_total whenever failover retries — by the per-attempt outcome
// pair.
type Metrics struct {
	// Requests counts every request that reached the gateway's /brief
	// handler, whatever its outcome. The outcome counters below partition
	// it: every request ends in exactly one.
	Requests atomic.Int64

	Proxied        atomic.Int64 // a backend response was relayed, whatever its status
	BadMethod      atomic.Int64 // 405: non-POST, refused at the gateway
	BadRequest     atomic.Int64 // 400: unreadable body
	TooLarge       atomic.Int64 // 413: body over the limit, refused before any backend
	NoBackend      atomic.Int64 // 503: every candidate's breaker was open
	BackendFailure atomic.Int64 // 502: attempts were made and all failed
	Timeout        atomic.Int64 // 504: deadline expired routing or relaying
	Canceled       atomic.Int64 // client disconnected before a response
	Draining       atomic.Int64 // 503: received during gateway shutdown

	// BackendRequests counts every relay attempt on any backend; the two
	// counters below partition it. One client request makes 1..Attempts
	// attempts, so this total reconciles against the per-backend request
	// counters (their sum is exactly BackendRequests).
	BackendRequests atomic.Int64
	BackendOK       atomic.Int64 // attempt produced a relayable response
	BackendError    atomic.Int64 // attempt failed: conn error or retryable status

	// Routing and rebalance counters. Rerouted counts candidates skipped on
	// an open breaker (the keys they owned served elsewhere); Ejections and
	// Readmissions count breaker transitions out of and back into rotation,
	// and Rebalances counts both — every change to the effective routing
	// set. After a quiesce (all backends healthy, breakers closed),
	// Ejections == Readmissions exactly.
	Rerouted     atomic.Int64
	Ejections    atomic.Int64
	Readmissions atomic.Int64
	Rebalances   atomic.Int64
	Probes       atomic.Int64 // health probes sent to ejected backends
}

// requestOutcomeFields names the Metrics counters that partition
// requests_total: every request reaching the gateway's /brief ends in
// exactly one of them. The wbcheck metricpart pass enforces the contract
// mechanically, as it does for the serving tier's partition; the
// TestGatewayOutcomeFieldsReconcile reflection test re-checks it at run
// time.
var requestOutcomeFields = []string{
	"Proxied",
	"BadMethod",
	"BadRequest",
	"TooLarge",
	"NoBackend",
	"BackendFailure",
	"Timeout",
	"Canceled",
	"Draining",
}

// backendOutcomeFields names the counters that partition
// backend_requests_total: every relay attempt either produced a relayable
// response or failed. Enforced by the same wbcheck metricpart pass and
// reflection test.
var backendOutcomeFields = []string{
	"BackendOK",
	"BackendError",
}

// backendSnapshot is one backend's block in the /metrics document. Blocks
// appear sorted by name, so scrapes are stable across runs.
type backendSnapshot struct {
	Name         string `json:"name"`
	Requests     int64  `json:"requests_total"`
	Errors       int64  `json:"errors_total"`
	BreakerState string `json:"breaker_state"`
	Generation   int64  `json:"generation"`
	ActiveConns  int    `json:"active_conns"`

	// Connection reuse (upstream.go). Every exchange sent to this backend —
	// relay attempt, health probe or reload drive — either dialed or took an
	// idle connection, and a stale replay dialed once more, so
	// dials + reused = requests_total + stale replays + probes + reloads.
	UpstreamDials        int64 `json:"upstream_dials_total"`
	UpstreamReused       int64 `json:"upstream_reused_total"`
	UpstreamStaleReplays int64 `json:"upstream_stale_replays_total"`
	IdleConns            int   `json:"idle_conns"`
}

// metricsSnapshot is the JSON document the gateway serves at /metrics.
// Struct (not map) so field order is stable across scrapes.
type metricsSnapshot struct {
	RequestsTotal int64 `json:"requests_total"`
	Responses     struct {
		Proxied        int64 `json:"proxied"`
		BadMethod      int64 `json:"bad_method"`
		BadRequest     int64 `json:"bad_request"`
		TooLarge       int64 `json:"too_large"`
		NoBackend      int64 `json:"no_backend"`
		BackendFailure int64 `json:"backend_failure"`
		Timeout        int64 `json:"timeout"`
		Canceled       int64 `json:"canceled"`
		Draining       int64 `json:"draining"`
	} `json:"responses"`
	BackendRequestsTotal int64 `json:"backend_requests_total"`
	BackendOutcomes      struct {
		BackendOK    int64 `json:"backend_ok_total"`
		BackendError int64 `json:"backend_error_total"`
	} `json:"outcomes"`
	Ring struct {
		Backends          int   `json:"backends"`
		VNodesPerBackend  int   `json:"vnodes_per_backend"`
		RoutableBackends  int   `json:"routable_backends"`
		ReroutedTotal     int64 `json:"rerouted_total"`
		EjectionsTotal    int64 `json:"ejections_total"`
		ReadmissionsTotal int64 `json:"readmissions_total"`
		RebalancesTotal   int64 `json:"rebalances_total"`
	} `json:"ring"`
	ProbesTotal int64 `json:"probes_total"`
	Reload      struct {
		FleetGeneration   int64 `json:"fleet_generation"`
		FleetReloadsTotal int64 `json:"fleet_reloads_total"`
	} `json:"reload"`
	Backends []backendSnapshot `json:"backends"`
}

// snapshot collects a point-in-time view of every counter plus the
// per-backend blocks, in sorted backend order.
func (g *Gateway) snapshot() metricsSnapshot {
	m := g.metrics
	var s metricsSnapshot
	s.RequestsTotal = m.Requests.Load()
	s.Responses.Proxied = m.Proxied.Load()
	s.Responses.BadMethod = m.BadMethod.Load()
	s.Responses.BadRequest = m.BadRequest.Load()
	s.Responses.TooLarge = m.TooLarge.Load()
	s.Responses.NoBackend = m.NoBackend.Load()
	s.Responses.BackendFailure = m.BackendFailure.Load()
	s.Responses.Timeout = m.Timeout.Load()
	s.Responses.Canceled = m.Canceled.Load()
	s.Responses.Draining = m.Draining.Load()
	s.BackendRequestsTotal = m.BackendRequests.Load()
	s.BackendOutcomes.BackendOK = m.BackendOK.Load()
	s.BackendOutcomes.BackendError = m.BackendError.Load()
	s.Ring.Backends = g.ring.Size()
	s.Ring.VNodesPerBackend = g.cfg.VNodes
	s.Ring.ReroutedTotal = m.Rerouted.Load()
	s.Ring.EjectionsTotal = m.Ejections.Load()
	s.Ring.ReadmissionsTotal = m.Readmissions.Load()
	s.Ring.RebalancesTotal = m.Rebalances.Load()
	s.ProbesTotal = m.Probes.Load()
	s.Reload.FleetGeneration = g.fleetGen.Load()
	s.Reload.FleetReloadsTotal = g.fleetReloads.Load()
	s.Backends = make([]backendSnapshot, 0, len(g.names))
	routable := 0
	for _, name := range g.names {
		b := g.backends[name]
		st := b.br.State()
		if st != BreakerOpen {
			routable++
		}
		s.Backends = append(s.Backends, backendSnapshot{
			Name:         name,
			Requests:     b.requests.Load(),
			Errors:       b.errors.Load(),
			BreakerState: st.String(),
			Generation:   b.generation.Load(),
			ActiveConns:  len(b.slots),

			UpstreamDials:        b.up.dials.Load(),
			UpstreamReused:       b.up.reused.Load(),
			UpstreamStaleReplays: b.up.staleReplays.Load(),
			IdleConns:            b.up.idleConns(),
		})
	}
	s.Ring.RoutableBackends = routable
	return s
}
