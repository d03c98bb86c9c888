package serve

import (
	"sync/atomic"

	"webbrief/internal/briefcache"
	"webbrief/internal/metrics"
)

// The fixed histogram bucket upper bounds, one set per scale. Fixed buckets
// keep observation lock-free (a few atomic adds) and make /metrics output
// directly comparable across runs.
var (
	// latencyBucketsNS: request and model-stage latencies, 0.5ms–1s
	// (rendered in milliseconds).
	latencyBucketsNS = []int64{
		500_000, 1_000_000, 2_000_000, 5_000_000,
		10_000_000, 20_000_000, 50_000_000, 100_000_000,
		200_000_000, 500_000_000, 1_000_000_000,
	}
	// batchWaitBucketsNS: enqueue → dispatch waits, 50µs–100ms. An idle
	// server dispatches in microseconds, so these get a finer scale than
	// request latencies.
	batchWaitBucketsNS = []int64{
		50_000, 100_000, 200_000, 500_000,
		1_000_000, 2_000_000, 5_000_000, 10_000_000,
		20_000_000, 50_000_000, 100_000_000,
	}
	// fastBucketsNS: cache hits and the handler's own stages, 1µs–10ms. A
	// hit is one or two SHA-256s plus a locked map probe, an order of
	// magnitude below even the batch-wait scale.
	fastBucketsNS = []int64{
		1_000, 2_000, 5_000, 10_000,
		20_000, 50_000, 100_000, 200_000,
		500_000, 1_000_000, 10_000_000,
	}
	// batchSizeBuckets: requests per dispatched batch.
	batchSizeBuckets = []int64{1, 2, 3, 4, 6, 8, 12, 16}
)

// serveStages tags latency_ms: a request's time from handler entry to its
// reply written, partitioned by the stages of its path (DESIGN §3). Each
// request carries one metrics.Clock in its accessEntry; the batchItem takes
// it to the executor and the batchResult brings it back by value, and finish
// observes it once. The stages are listed in document order; a request
// passes them as read, cache, parse, cache, queue_wait, parse, encode,
// decode, reply, log.
type serveStages struct{}

var stages = metrics.NewStages[serveStages](metrics.Millis, latencyBucketsNS)

var (
	stageRead   = stages.Stage("read", fastBucketsNS)          // handler entry → body read
	stageCache  = stages.Stage("cache", fastBucketsNS)         // both cache levels' lookups and a coalesced request's flight wait
	stageQueue  = stages.Stage("queue_wait", latencyBucketsNS) // admission → the checkout that answered; also a faulted attempt, and the wait of a request that leaves first
	stageParse  = stages.Stage("parse", latencyBucketsNS)      // HTML → sentences in the handler, then the batch's token ids at its first checkout
	stageEncode = stages.Stage("encode", latencyBucketsNS)     // eval forward → attributes + sections
	stageDecode = stages.Stage("decode", latencyBucketsNS)     // beam-search topic generation, escalations included
	stageReply  = stages.Stage("reply", fastBucketsNS)         // the outcome → its response buffered (httpwire sends it after the handler)
	stageLog    = stages.Stage("log", fastBucketsNS)           // the access-log line encoded and written; only with an access log, and absent from its own line
)

// The three exact partitions of the serving tier's /metrics, each declared
// once, here: an Outcome line is an outcome's counter, its JSON key and its
// position in the document (internal/metrics). To add an outcome, add its
// line (and re-pin testdata/metrics_zero.golden.json).
type (
	requestsTotal        struct{} // requests_total, partitioned by "responses"
	cacheLookupsTotal    struct{} // cache.cache_lookups_total, by cache.outcomes
	cascadeRequestsTotal struct{} // cascade.cascade_requests_total, by cascade.tiers
)

var (
	requestOutcomes = metrics.NewSchema[requestsTotal]()
	cacheOutcomes   = metrics.NewSchema[cacheLookupsTotal]()
	cascadeOutcomes = metrics.NewSchema[cascadeRequestsTotal]()
)

// Every request that reaches the /brief handler ends in exactly one of these.
var (
	OK             = requestOutcomes.Outcome("ok")              // 200: briefing served
	BadMethod      = requestOutcomes.Outcome("bad_method")      // 405: non-POST
	BadRequest     = requestOutcomes.Outcome("bad_request")     // 400: unreadable body
	TooLarge       = requestOutcomes.Outcome("too_large")       // 413: body over the limit
	Unbriefable    = requestOutcomes.Outcome("unbriefable")     // 422: no visible text
	Overload       = requestOutcomes.Outcome("overload")        // 429: admission queue full
	Timeout        = requestOutcomes.Outcome("timeout")         // 504: deadline expired in queue or pipeline
	Canceled       = requestOutcomes.Outcome("canceled")        // client disconnected before a response
	Draining       = requestOutcomes.Outcome("draining")        // 503: received during shutdown
	ReplicaFailure = requestOutcomes.Outcome("replica_failure") // 500: replica panicked/stalled and the retry budget ran out
)

// Every request that consults the cache is one of these, assigned once at
// first decision.
var (
	CacheHits      = cacheOutcomes.Outcome("cache_hits_total")      // served from cache, no replica checkout
	CacheMisses    = cacheOutcomes.Outcome("cache_misses_total")    // flight winners that computed the briefing
	CacheCoalesced = cacheOutcomes.Outcome("cache_coalesced_total") // waiters served by a winner's flight
)

// Every briefing that runs the cascade is answered by exactly one tier,
// decided once at decode time.
var (
	CascadeStudent = cascadeOutcomes.Outcome("student_total") // answered by the float32 student tier
	CascadeTeacher = cascadeOutcomes.Outcome("teacher_total") // escalated to the float64 teacher tier
)

// Metrics aggregates the serving counters exported at /metrics. Everything
// is atomics: the hot path never takes a lock to record. Build one with
// newMetrics (the partitions and histograms carry their declarations).
type Metrics struct {
	// Requests counts every request that reached the /brief handler (Begin)
	// and the one outcome it ended in (Server.settle).
	Requests *metrics.Partition[requestsTotal]

	InFlight atomic.Int64 // requests holding (or briefing on) a replica
	Queued   atomic.Int64 // requests admitted and not yet answered: waiting for or briefing on a replica
	Waiting  atomic.Int64 // requests admitted and not yet checked out onto a replica (batchItem.leaveQueue)

	// Resilience counters: every recovered replica panic and detected
	// stall ejects the offending replica; each such event then either
	// retries the request on another replica (Retries) or, with the
	// budget spent, ends it as a ReplicaFailure.
	Panics  atomic.Int64 // replica panics recovered by the handler
	Stalls  atomic.Int64 // replica stage stalls caught by the watchdog
	Retries atomic.Int64 // requests re-run on another replica (retries_total)

	// Latency is latency_ms: every request's clock, observed once (finish).
	Latency *metrics.Latency[serveStages]

	// Batching counters: every request that reaches a replica does so in a
	// batch (of one when a replica was idle). They partition batches, not
	// requests: the requests_total outcome partition above stays exact
	// because every batched request still ends in exactly one per-request
	// outcome.
	BatchesTotal      atomic.Int64       // batches dispatched (batches_total)
	CoalescedRequests atomic.Int64       // requests served in batches of size ≥ 2
	BatchSize         *metrics.Histogram // requests per dispatched batch
	BatchWait         *metrics.Histogram // enqueue → batch dispatch, per request: it overlaps queue_wait, so it stands outside the partition

	// CacheLookups counts every request that consulted the cache, populated
	// only when the briefing cache is enabled. Evictions live on the cache
	// itself and are read at snapshot time.
	CacheLookups    *metrics.Partition[cacheLookupsTotal]
	CacheHitLatency *metrics.Histogram // body read → hit response buffered

	// CascadeRequests counts every briefing routed through the cascade,
	// populated only when the server runs the float32 student cascade
	// (Config.Cascade). The tier histograms carry per-tier wall time: every
	// briefing observes a student latency; only escalations observe a
	// teacher latency on top.
	CascadeRequests *metrics.Partition[cascadeRequestsTotal]
	StudentLatency  *metrics.Histogram // encode + decode less escalation, per briefing
	TeacherLatency  *metrics.Histogram // teacher re-brief wall time, per escalation
}

// newMetrics returns zeroed counters with every histogram on its scale.
func newMetrics() *Metrics {
	return &Metrics{
		Requests:        requestOutcomes.New(),
		Latency:         stages.New(),
		BatchSize:       metrics.NewHistogram(metrics.Plain, batchSizeBuckets),
		BatchWait:       metrics.NewHistogram(metrics.Nanos, batchWaitBucketsNS),
		CacheLookups:    cacheOutcomes.New(),
		CacheHitLatency: metrics.NewHistogram(metrics.Nanos, fastBucketsNS),
		CascadeRequests: cascadeOutcomes.New(),
		StudentLatency:  metrics.NewHistogram(metrics.Millis, latencyBucketsNS),
		TeacherLatency:  metrics.NewHistogram(metrics.Millis, latencyBucketsNS),
	}
}

// metricsSnapshot is the JSON document served at /metrics. Struct (not
// map) so field order is stable across scrapes.
type metricsSnapshot struct {
	RequestsTotal int64                         `json:"requests_total"`
	Responses     metrics.Counts[requestsTotal] `json:"responses"`
	RetriesTotal  int64                         `json:"retries_total"`
	PanicsTotal   int64                         `json:"panics_total"`
	StallsTotal   int64                         `json:"stalls_total"`
	InFlight      int64                         `json:"in_flight"`
	QueueDepth    int64                         `json:"queue_depth"`
	QueueWaiting  int64                         `json:"queue_waiting"`
	Pool          struct {
		Replicas        int   `json:"replicas"`
		Idle            int   `json:"idle"`
		ReplicasHealthy int   `json:"replicas_healthy"`
		Ejections       int64 `json:"ejections_total"`
		Readmissions    int64 `json:"readmissions_total"`
		BreakerState    struct {
			Closed   int `json:"closed"`
			Open     int `json:"open"`
			HalfOpen int `json:"half_open"`
		} `json:"breaker_state"`
	} `json:"pool"`
	LatencyMS *metrics.Latency[serveStages] `json:"latency_ms"`
	Batching  struct {
		Enabled                bool                      `json:"enabled"`
		BatchesTotal           int64                     `json:"batches_total"`
		CoalescedRequestsTotal int64                     `json:"coalesced_requests_total"`
		BatchSize              metrics.HistogramSnapshot `json:"batch_size"`
		BatchWaitNS            metrics.HistogramSnapshot `json:"batch_wait_ns"`
	} `json:"batching"`
	Cache struct {
		Enabled       bool                              `json:"enabled"`
		CacheLookups  int64                             `json:"cache_lookups_total"`
		CacheOutcomes metrics.Counts[cacheLookupsTotal] `json:"outcomes"`
		Evictions     int64                             `json:"cache_evictions_total"`
		Entries       int                               `json:"entries"`
		HitLatencyNS  metrics.HistogramSnapshot         `json:"hit_latency_ns"`
	} `json:"cache"`
	Cascade struct {
		Enabled             bool                                 `json:"enabled"`
		ConfidenceThreshold float64                              `json:"confidence_threshold"`
		CascadeRequests     int64                                `json:"cascade_requests_total"`
		CascadeTiers        metrics.Counts[cascadeRequestsTotal] `json:"tiers"`
		EscalationRate      float64                              `json:"escalation_rate"`
		LatencyMS           struct {
			Student metrics.HistogramSnapshot `json:"student"`
			Teacher metrics.HistogramSnapshot `json:"teacher"`
		} `json:"latency_ms"`
	} `json:"cascade"`
	Reload struct {
		Generation   int64 `json:"generation"`
		ReloadsTotal int64 `json:"reloads_total"`
	} `json:"reload"`
}

// snapshot collects a point-in-time view of every counter. cache is the
// briefing cache (nil when disabled), read for eviction and
// occupancy figures; cascade and threshold describe the student fast path
// (threshold is only meaningful when cascade is set); gen and reloads are
// the hot-reload generation counter and lifetime reload count.
func (m *Metrics) snapshot(pool *Pool, cache *briefcache.Cache, cascade bool, threshold float64, gen, reloads int64) metricsSnapshot {
	var s metricsSnapshot
	s.RequestsTotal, s.Responses = m.Requests.Snapshot()
	s.RetriesTotal = m.Retries.Load()
	s.PanicsTotal = m.Panics.Load()
	s.StallsTotal = m.Stalls.Load()
	s.InFlight = m.InFlight.Load()
	s.QueueDepth = m.Queued.Load()
	s.QueueWaiting = m.Waiting.Load()
	s.Pool.Replicas = pool.Size()
	s.Pool.Idle = pool.Idle()
	s.Pool.Ejections = pool.Ejections()
	s.Pool.Readmissions = pool.Readmissions()
	bs := &s.Pool.BreakerState
	bs.Closed, bs.Open, bs.HalfOpen = pool.BreakerStates()
	s.Pool.ReplicasHealthy = bs.Closed
	s.LatencyMS = m.Latency
	s.Batching.Enabled = true // kept for scrapers: the scheduler is the only path
	s.Batching.BatchesTotal = m.BatchesTotal.Load()
	s.Batching.CoalescedRequestsTotal = m.CoalescedRequests.Load()
	s.Batching.BatchSize = m.BatchSize.Snapshot()
	s.Batching.BatchWaitNS = m.BatchWait.Snapshot()
	s.Cache.Enabled = cache != nil
	s.Cache.CacheLookups, s.Cache.CacheOutcomes = m.CacheLookups.Snapshot()
	if cache != nil {
		s.Cache.Evictions = cache.Evictions()
		s.Cache.Entries = cache.Len()
	}
	s.Cache.HitLatencyNS = m.CacheHitLatency.Snapshot()
	s.Cascade.Enabled = cascade
	if cascade {
		s.Cascade.ConfidenceThreshold = threshold
	}
	s.Cascade.CascadeRequests, s.Cascade.CascadeTiers = m.CascadeRequests.Snapshot()
	if total := s.Cascade.CascadeRequests; total > 0 {
		s.Cascade.EscalationRate = float64(s.Cascade.CascadeTiers.Get(CascadeTeacher)) / float64(total)
	}
	s.Cascade.LatencyMS.Student = m.StudentLatency.Snapshot()
	s.Cascade.LatencyMS.Teacher = m.TeacherLatency.Snapshot()
	s.Reload.Generation = gen
	s.Reload.ReloadsTotal = reloads
	return s
}
