package serve

import (
	"sync/atomic"
	"time"

	"webbrief/internal/briefcache"
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
	// SHA-256s plus a shard-locked map probe, an order of magnitude below
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

// Metrics aggregates the serving counters exported at /metrics. All fields
// are atomics: the hot path never takes a lock to record. Build one with
// newMetrics (the histograms carry their bucket bounds).
type Metrics struct {
	// Requests counts every request that reached the /brief handler,
	// whatever its outcome. The outcome counters below partition it.
	Requests atomic.Int64

	OK             atomic.Int64 // 200: briefing served
	BadMethod      atomic.Int64 // 405: non-POST
	BadRequest     atomic.Int64 // 400: unreadable body
	TooLarge       atomic.Int64 // 413: body over the limit
	Unbriefable    atomic.Int64 // 422: no visible text
	Overload       atomic.Int64 // 429: admission queue full
	Timeout        atomic.Int64 // 504: deadline expired in queue or pipeline
	Canceled       atomic.Int64 // client disconnected before a response
	Draining       atomic.Int64 // 503: received during shutdown
	ReplicaFailure atomic.Int64 // 500: replica panicked/stalled and the retry budget ran out

	InFlight atomic.Int64 // requests holding (or briefing on) a replica
	Queued   atomic.Int64 // requests admitted and not yet answered: waiting for or briefing on a replica

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

	// Cache counters, populated only when the briefing cache is enabled.
	// CacheLookups counts every request that consulted the cache, and the
	// three outcome counters partition it exactly (cacheOutcomeFields):
	// each consulting request is a hit, a miss (flight winner) or a
	// coalesced waiter, assigned once at first decision. Evictions live on
	// the cache itself and are read at snapshot time.
	CacheLookups    atomic.Int64 // cache_lookups_total
	CacheHits       atomic.Int64 // served from cache, no replica checkout
	CacheMisses     atomic.Int64 // flight winners that computed the briefing
	CacheCoalesced  atomic.Int64 // waiters served by a winner's flight
	CacheHitLatency histogram    // lookup start → hit response written (cacheHitBucketsNS)

	// Cascade counters, populated only when the pool runs the float32
	// student cascade (NewCascadePool). CascadeRequests counts every
	// briefing routed through the cascade, and the two tier counters
	// partition it exactly (cascadeOutcomeFields): each briefing either
	// stays on the student or escalates to the teacher, decided once at
	// decode time. The tier histograms carry per-tier wall time: every
	// briefing observes a student latency; only escalations observe a
	// teacher latency on top.
	CascadeRequests atomic.Int64 // cascade_requests_total
	CascadeStudent  atomic.Int64 // answered by the float32 student tier
	CascadeTeacher  atomic.Int64 // escalated to the float64 teacher tier
	StudentLatency  histogram    // student encode+decode wall time, per briefing
	TeacherLatency  histogram    // teacher re-brief wall time, per escalation
}

// newMetrics returns zeroed counters with every histogram on its scale.
func newMetrics() *Metrics {
	return &Metrics{
		QueueWait:       newHistogram(latencyBucketsNS),
		Parse:           newHistogram(latencyBucketsNS),
		Encode:          newHistogram(latencyBucketsNS),
		Decode:          newHistogram(latencyBucketsNS),
		Total:           newHistogram(latencyBucketsNS),
		BatchSize:       newHistogram(batchSizeBuckets),
		BatchWait:       newHistogram(batchWaitBucketsNS),
		CacheHitLatency: newHistogram(cacheHitBucketsNS),
		StudentLatency:  newHistogram(latencyBucketsNS),
		TeacherLatency:  newHistogram(latencyBucketsNS),
	}
}

// requestOutcomeFields names the Metrics counters that partition
// requests_total: every request ends in exactly one of them. The wbcheck
// metricpart pass enforces the contract mechanically — each entry must be
// an atomic.Int64 field above, the Responses snapshot must mirror this
// list exactly, and any new counter bumped where a response status is
// recorded must be added here (and to the snapshot) or the partition
// silently drifts. TestRequestOutcomeFieldsReconcile re-checks the same
// three-way correspondence at run time with reflection.
var requestOutcomeFields = []string{
	"OK",
	"BadMethod",
	"BadRequest",
	"TooLarge",
	"Unbriefable",
	"Overload",
	"Timeout",
	"Canceled",
	"Draining",
	"ReplicaFailure",
}

// cacheOutcomeFields names the counters that partition
// cache_lookups_total: every request that consults the cache ends in
// exactly one of them. Enforced by the same wbcheck metricpart pass and
// runtime reflection test as requestOutcomeFields.
var cacheOutcomeFields = []string{
	"CacheHits",
	"CacheMisses",
	"CacheCoalesced",
}

// cascadeOutcomeFields names the counters that partition
// cascade_requests_total: every briefing that runs the cascade is answered
// by exactly one tier. Enforced by the same wbcheck metricpart pass and
// runtime reflection test as requestOutcomeFields.
var cascadeOutcomeFields = []string{
	"CascadeStudent",
	"CascadeTeacher",
}

// metricsSnapshot is the JSON document served at /metrics. Struct (not
// map) so field order is stable across scrapes.
type metricsSnapshot struct {
	RequestsTotal int64 `json:"requests_total"`
	Responses     struct {
		OK             int64 `json:"ok"`
		BadMethod      int64 `json:"bad_method"`
		BadRequest     int64 `json:"bad_request"`
		TooLarge       int64 `json:"too_large"`
		Unbriefable    int64 `json:"unbriefable"`
		Overload       int64 `json:"overload"`
		Timeout        int64 `json:"timeout"`
		Canceled       int64 `json:"canceled"`
		Draining       int64 `json:"draining"`
		ReplicaFailure int64 `json:"replica_failure"`
	} `json:"responses"`
	RetriesTotal int64 `json:"retries_total"`
	PanicsTotal  int64 `json:"panics_total"`
	StallsTotal  int64 `json:"stalls_total"`
	InFlight     int64 `json:"in_flight"`
	QueueDepth   int64 `json:"queue_depth"`
	Pool         struct {
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
		Enabled       bool  `json:"enabled"`
		CacheLookups  int64 `json:"cache_lookups_total"`
		CacheOutcomes struct {
			CacheHits      int64 `json:"cache_hits_total"`
			CacheMisses    int64 `json:"cache_misses_total"`
			CacheCoalesced int64 `json:"cache_coalesced_total"`
		} `json:"outcomes"`
		Evictions    int64               `json:"cache_evictions_total"`
		Entries      int                 `json:"entries"`
		HitLatencyNS nsHistogramSnapshot `json:"hit_latency_ns"`
	} `json:"cache"`
	Cascade struct {
		Enabled             bool    `json:"enabled"`
		ConfidenceThreshold float64 `json:"confidence_threshold"`
		CascadeRequests     int64   `json:"cascade_requests_total"`
		CascadeTiers        struct {
			CascadeStudent int64 `json:"student_total"`
			CascadeTeacher int64 `json:"teacher_total"`
		} `json:"tiers"`
		EscalationRate float64 `json:"escalation_rate"`
		LatencyMS      struct {
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
	s.RequestsTotal = m.Requests.Load()
	s.Responses.OK = m.OK.Load()
	s.Responses.BadMethod = m.BadMethod.Load()
	s.Responses.BadRequest = m.BadRequest.Load()
	s.Responses.TooLarge = m.TooLarge.Load()
	s.Responses.Unbriefable = m.Unbriefable.Load()
	s.Responses.Overload = m.Overload.Load()
	s.Responses.Timeout = m.Timeout.Load()
	s.Responses.Canceled = m.Canceled.Load()
	s.Responses.Draining = m.Draining.Load()
	s.Responses.ReplicaFailure = m.ReplicaFailure.Load()
	s.RetriesTotal = m.Retries.Load()
	s.PanicsTotal = m.Panics.Load()
	s.StallsTotal = m.Stalls.Load()
	s.InFlight = m.InFlight.Load()
	s.QueueDepth = m.Queued.Load()
	s.Pool.Replicas = pool.Size()
	s.Pool.Idle = pool.Idle()
	s.Pool.ReplicasHealthy = pool.Healthy()
	s.Pool.Ejections = pool.Ejections()
	s.Pool.Readmissions = pool.Readmissions()
	closed, open, half := pool.BreakerStates()
	s.Pool.BreakerState.Closed = closed
	s.Pool.BreakerState.Open = open
	s.Pool.BreakerState.HalfOpen = half
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
	s.Cache.CacheLookups = m.CacheLookups.Load()
	s.Cache.CacheOutcomes.CacheHits = m.CacheHits.Load()
	s.Cache.CacheOutcomes.CacheMisses = m.CacheMisses.Load()
	s.Cache.CacheOutcomes.CacheCoalesced = m.CacheCoalesced.Load()
	if cache != nil {
		s.Cache.Evictions = cache.Evictions()
		s.Cache.Entries = cache.Len()
	}
	s.Cache.HitLatencyNS = m.CacheHitLatency.snapshotNS()
	s.Cascade.Enabled = cascade
	if cascade {
		s.Cascade.ConfidenceThreshold = threshold
	}
	s.Cascade.CascadeRequests = m.CascadeRequests.Load()
	s.Cascade.CascadeTiers.CascadeStudent = m.CascadeStudent.Load()
	s.Cascade.CascadeTiers.CascadeTeacher = m.CascadeTeacher.Load()
	if total := s.Cascade.CascadeRequests; total > 0 {
		s.Cascade.EscalationRate = float64(s.Cascade.CascadeTiers.CascadeTeacher) / float64(total)
	}
	s.Cascade.LatencyMS.Student = m.StudentLatency.snapshotMS()
	s.Cascade.LatencyMS.Teacher = m.TeacherLatency.snapshotMS()
	s.Reload.Generation = gen
	s.Reload.ReloadsTotal = reloads
	return s
}
