package gateway

import (
	"sync/atomic"

	"webbrief/internal/metrics"
)

// The gateway's two exact partitions, each declared once, here: an Outcome
// line is an outcome's counter, its JSON key and its position in the
// document (internal/metrics). To add an outcome, add its line (and re-pin
// testdata/metrics_zero.golden.json).
type (
	requestsTotal        struct{} // requests_total, partitioned by "responses"
	backendRequestsTotal struct{} // backend_requests_total, by "outcomes"
)

var (
	requestOutcomes = metrics.NewSchema[requestsTotal]()
	backendOutcomes = metrics.NewSchema[backendRequestsTotal]()
)

// Every request that reaches the gateway's /brief ends in exactly one of
// these client-facing outcomes.
var (
	Proxied        = requestOutcomes.Outcome("proxied")         // a backend response was relayed, whatever its status
	BadMethod      = requestOutcomes.Outcome("bad_method")      // 405: non-POST, refused at the gateway
	BadRequest     = requestOutcomes.Outcome("bad_request")     // 400: unreadable body
	TooLarge       = requestOutcomes.Outcome("too_large")       // 413: body over the limit, refused before any backend
	NoBackend      = requestOutcomes.Outcome("no_backend")      // 503: every candidate's breaker was open
	BackendFailure = requestOutcomes.Outcome("backend_failure") // 502: attempts were made and all failed
	Timeout        = requestOutcomes.Outcome("timeout")         // 504: deadline expired routing or relaying
	Canceled       = requestOutcomes.Outcome("canceled")        // client disconnected before a response
	Draining       = requestOutcomes.Outcome("draining")        // 503: received during gateway shutdown
)

// Every relay attempt either produced a relayable response or failed.
var (
	BackendOK    = backendOutcomes.Outcome("backend_ok_total")    // attempt produced a relayable response
	BackendError = backendOutcomes.Outcome("backend_error_total") // attempt failed: conn error or retryable status
)

// Metrics aggregates the gateway counters exported at /metrics. Everything
// is atomics; the proxy path never takes a lock to record.
type Metrics struct {
	// Requests counts every request that reached the gateway's /brief
	// handler (Begin) and the one outcome it ended in.
	Requests *metrics.Partition[requestsTotal]

	// BackendRequests counts every relay attempt on any backend. One client
	// request makes 1..Attempts attempts, so this total exceeds
	// requests_total whenever failover retries, and reconciles against the
	// per-backend request counters (their sum is exactly its total).
	BackendRequests *metrics.Partition[backendRequestsTotal]

	// Routing counters. Rerouted counts candidates skipped on an open
	// breaker (the keys they owned served elsewhere); Ejections and
	// Readmissions count breaker transitions out of and back into rotation
	// (rebalances_total is their sum — every change to the effective routing
	// set). After a quiesce (all backends healthy, breakers closed),
	// Ejections == Readmissions exactly.
	Rerouted     atomic.Int64
	Ejections    atomic.Int64
	Readmissions atomic.Int64
	Probes       atomic.Int64 // health probes sent to ejected backends
}

func newMetrics() *Metrics {
	return &Metrics{Requests: requestOutcomes.New(), BackendRequests: backendOutcomes.New()}
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
	RequestsTotal        int64                                `json:"requests_total"`
	Responses            metrics.Counts[requestsTotal]        `json:"responses"`
	BackendRequestsTotal int64                                `json:"backend_requests_total"`
	BackendOutcomes      metrics.Counts[backendRequestsTotal] `json:"outcomes"`
	Ring                 struct {
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
	s.RequestsTotal, s.Responses = m.Requests.Snapshot()
	s.BackendRequestsTotal, s.BackendOutcomes = m.BackendRequests.Snapshot()
	s.Ring.Backends = g.ring.Size()
	s.Ring.VNodesPerBackend = g.cfg.VNodes
	s.Ring.ReroutedTotal = m.Rerouted.Load()
	s.Ring.EjectionsTotal = m.Ejections.Load()
	s.Ring.ReadmissionsTotal = m.Readmissions.Load()
	s.Ring.RebalancesTotal = s.Ring.EjectionsTotal + s.Ring.ReadmissionsTotal
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
