package serve

import (
	"sync/atomic"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/metrics"
)

// The fixed histogram bucket upper bounds, one set per scale. Fixed buckets
// keep observation lock-free (a few atomic adds) and make /metrics output
// directly comparable across runs.
var (
	// latencyBucketsNS: request and stage latencies, 0.5ms–1s (rendered in
	// milliseconds).
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
	// cacheHitBucketsNS: cache-hit latencies, 1µs–10ms. A hit is one or two
	// SHA-256s plus a locked map probe, an order of magnitude below
	// even the batch-wait scale.
	cacheHitBucketsNS = []int64{
		1_000, 2_000, 5_000, 10_000,
		20_000, 50_000, 100_000, 200_000,
		500_000, 1_000_000, 10_000_000,
	}
	// batchSizeBuckets: requests per dispatched batch.
	batchSizeBuckets = []int64{1, 2, 3, 4, 6, 8, 12, 16}
)

// histogram is a fixed-bucket histogram over int64 values (nanoseconds for
// the duration histograms, a count for the size histogram), safe for
// concurrent observation. counts has one slot per bound plus a trailing
// overflow slot for values above the last bound.
type histogram struct {
	bounds []int64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) histogram {
	return histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Observe records one duration.
func (h *histogram) Observe(d time.Duration) { h.observe(d.Nanoseconds()) }

func (h *histogram) loadCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// The three /metrics renderings of a histogram. Counts always has one extra
// trailing slot: observations above the last bucket bound.

// histogramSnapshot renders a duration histogram in milliseconds.
type histogramSnapshot struct {
	BucketsMS []float64 `json:"buckets_ms"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	SumMS     float64   `json:"sum_ms"`
}

func (h *histogram) snapshotMS() histogramSnapshot {
	ms := make([]float64, len(h.bounds))
	for i, b := range h.bounds {
		ms[i] = float64(b) / 1e6
	}
	return histogramSnapshot{ms, h.loadCounts(), h.count.Load(), float64(h.sum.Load()) / 1e6}
}

// nsHistogramSnapshot renders a duration histogram in nanoseconds.
type nsHistogramSnapshot struct {
	BucketsNS []int64 `json:"buckets_ns"`
	Counts    []int64 `json:"counts"`
	Count     int64   `json:"count"`
	SumNS     int64   `json:"sum_ns"`
}

func (h *histogram) snapshotNS() nsHistogramSnapshot {
	return nsHistogramSnapshot{h.bounds, h.loadCounts(), h.count.Load(), h.sum.Load()}
}

// sizeHistogramSnapshot renders a histogram over small integer sizes.
type sizeHistogramSnapshot struct {
	Buckets []int64 `json:"buckets"`
	Counts  []int64 `json:"counts"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

func (h *histogram) snapshotSize() sizeHistogramSnapshot {
	return sizeHistogramSnapshot{h.bounds, h.loadCounts(), h.count.Load(), h.sum.Load()}
}

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

	QueueWait histogram // time from admission to replica checkout
	Parse     histogram // HTML → instance
	Encode    histogram // eval forward → attributes + sections
	Decode    histogram // beam-search topic generation
	Total     histogram // handler entry → response written

	// Batching counters: every request that reaches a replica does so in a
	// batch (of one when a replica was idle). They partition batches, not
	// requests: the requests_total outcome partition above stays exact
	// because every batched request still ends in exactly one per-request
	// outcome.
	BatchesTotal      atomic.Int64 // batches dispatched (batches_total)
	CoalescedRequests atomic.Int64 // requests served in batches of size ≥ 2
	BatchSize         histogram    // requests per dispatched batch (batchSizeBuckets)
	BatchWait         histogram    // enqueue → batch dispatch, per request (batchWaitBucketsNS)

	// CacheLookups counts every request that consulted the cache, populated
	// only when the briefing cache is enabled. Evictions live on the cache
	// itself and are read at snapshot time.
	CacheLookups    *metrics.Partition[cacheLookupsTotal]
	CacheHitLatency histogram // lookup start → hit response written (cacheHitBucketsNS)

	// CascadeRequests counts every briefing routed through the cascade,
	// populated only when the server runs the float32 student cascade
	// (Config.Cascade). The tier histograms carry per-tier wall time: every
	// briefing observes a student latency; only escalations observe a
	// teacher latency on top.
	CascadeRequests *metrics.Partition[cascadeRequestsTotal]
	StudentLatency  histogram // student encode+decode wall time, per briefing
	TeacherLatency  histogram // teacher re-brief wall time, per escalation
}

// newMetrics returns zeroed counters with every histogram on its scale.
func newMetrics() *Metrics {
	return &Metrics{
		Requests:        requestOutcomes.New(),
		QueueWait:       newHistogram(latencyBucketsNS),
		Parse:           newHistogram(latencyBucketsNS),
		Encode:          newHistogram(latencyBucketsNS),
		Decode:          newHistogram(latencyBucketsNS),
		Total:           newHistogram(latencyBucketsNS),
		BatchSize:       newHistogram(batchSizeBuckets),
		BatchWait:       newHistogram(batchWaitBucketsNS),
		CacheLookups:    cacheOutcomes.New(),
		CacheHitLatency: newHistogram(cacheHitBucketsNS),
		CascadeRequests: cascadeOutcomes.New(),
		StudentLatency:  newHistogram(latencyBucketsNS),
		TeacherLatency:  newHistogram(latencyBucketsNS),
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
	LatencyMS struct {
		QueueWait histogramSnapshot `json:"queue_wait"`
		Parse     histogramSnapshot `json:"parse"`
		Encode    histogramSnapshot `json:"encode"`
		Decode    histogramSnapshot `json:"decode"`
		Total     histogramSnapshot `json:"total"`
	} `json:"latency_ms"`
	Batching struct {
		Enabled                bool                  `json:"enabled"`
		BatchesTotal           int64                 `json:"batches_total"`
		CoalescedRequestsTotal int64                 `json:"coalesced_requests_total"`
		BatchSize              sizeHistogramSnapshot `json:"batch_size"`
		BatchWaitNS            nsHistogramSnapshot   `json:"batch_wait_ns"`
	} `json:"batching"`
	Cache struct {
		Enabled       bool                              `json:"enabled"`
		CacheLookups  int64                             `json:"cache_lookups_total"`
		CacheOutcomes metrics.Counts[cacheLookupsTotal] `json:"outcomes"`
		Evictions     int64                             `json:"cache_evictions_total"`
		Entries       int                               `json:"entries"`
		HitLatencyNS  nsHistogramSnapshot               `json:"hit_latency_ns"`
	} `json:"cache"`
	Cascade struct {
		Enabled             bool                                 `json:"enabled"`
		ConfidenceThreshold float64                              `json:"confidence_threshold"`
		CascadeRequests     int64                                `json:"cascade_requests_total"`
		CascadeTiers        metrics.Counts[cascadeRequestsTotal] `json:"tiers"`
		EscalationRate      float64                              `json:"escalation_rate"`
		LatencyMS           struct {
			Student histogramSnapshot `json:"student"`
			Teacher histogramSnapshot `json:"teacher"`
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
	s.LatencyMS.QueueWait = m.QueueWait.snapshotMS()
	s.LatencyMS.Parse = m.Parse.snapshotMS()
	s.LatencyMS.Encode = m.Encode.snapshotMS()
	s.LatencyMS.Decode = m.Decode.snapshotMS()
	s.LatencyMS.Total = m.Total.snapshotMS()
	s.Batching.Enabled = true // kept for scrapers: the scheduler is the only path
	s.Batching.BatchesTotal = m.BatchesTotal.Load()
	s.Batching.CoalescedRequestsTotal = m.CoalescedRequests.Load()
	s.Batching.BatchSize = m.BatchSize.snapshotSize()
	s.Batching.BatchWaitNS = m.BatchWait.snapshotNS()
	s.Cache.Enabled = cache != nil
	s.Cache.CacheLookups, s.Cache.CacheOutcomes = m.CacheLookups.Snapshot()
	if cache != nil {
		s.Cache.Evictions = cache.Evictions()
		s.Cache.Entries = cache.Len()
	}
	s.Cache.HitLatencyNS = m.CacheHitLatency.snapshotNS()
	s.Cascade.Enabled = cascade
	if cascade {
		s.Cascade.ConfidenceThreshold = threshold
	}
	s.Cascade.CascadeRequests, s.Cascade.CascadeTiers = m.CascadeRequests.Snapshot()
	if total := s.Cascade.CascadeRequests; total > 0 {
		s.Cascade.EscalationRate = float64(s.Cascade.CascadeTiers.Get(CascadeTeacher)) / float64(total)
	}
	s.Cascade.LatencyMS.Student = m.StudentLatency.snapshotMS()
	s.Cascade.LatencyMS.Teacher = m.TeacherLatency.snapshotMS()
	s.Reload.Generation = gen
	s.Reload.ReloadsTotal = reloads
	return s
}
