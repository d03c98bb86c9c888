// Package serve is the production HTTP serving subsystem for webpage
// briefings — the deployment form §I motivates, built to the ROADMAP's
// heavy-traffic north star. It replaces the single-mutex wb.Briefer path
// with:
//
//   - a replica pool: each generation is one folded eval-mode model per tier
//     (see NewPool, wb.LoadServing), read-only and shared, plus N replicas
//     that are nothing but private workspaces on those models, checked out
//     per batch, so briefings scale across GOMAXPROCS instead of serialising
//     on one lock;
//   - one request path (batch.go): every briefing is a batch — of one when
//     a replica is idle, of whatever queued while all were busy otherwise —
//     and runs one forward pass per model tier;
//   - admission control: a bounded wait queue that sheds load with
//     429 + Retry-After instead of collapsing, per-request deadlines via
//     context, and 413 for oversized bodies;
//   - observability: a stdlib-only /metrics endpoint (atomic counters and
//     fixed-bucket latency histograms per pipeline stage) and structured
//     JSON access logs;
//   - lifecycle: /healthz reporting pool readiness, and draining shutdown
//     that finishes in-flight briefings.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/htmldom"
	"webbrief/internal/httpwire"
	"webbrief/internal/metrics"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// retryAfter is the Retry-After hint, in seconds, on 429 and draining 503s.
const retryAfter = "1"

// Config sizes a Server. The zero value is usable: GOMAXPROCS replicas, a
// 64-deep admission queue, no deadline, the default body limit, one replica
// retry, probing every 25ms. The beam width is the model's own
// (wb.Config.BeamSize, recorded in its bundle).
type Config struct {
	Replicas     int           // model replicas (0 = GOMAXPROCS)
	QueueDepth   int           // requests allowed to wait for a replica before 429 (<0 = none wait)
	Timeout      time.Duration // per-request deadline, queue wait included (0 = none)
	MaxBodyBytes int64         // request body limit (0 = httpwire.DefaultMaxBodyBytes)
	AccessLog    io.Writer     // JSON-line access log (nil = disabled)

	// ReplicaRetries is how many times a request whose replica panicked or
	// stalled is re-run on another replica before 500 (0 = 1, <0 = none).
	ReplicaRetries int
	// StallTimeout is the per-stage watchdog: a stage exceeding it marks
	// the replica wedged and ejects it (0 = disabled). Set it well above
	// the slowest healthy stage.
	StallTimeout time.Duration
	// ProbeInterval is the re-admission probe cadence for ejected
	// replicas (0 = 25ms); breaker.ReadmitProbes consecutive clean probe
	// briefings close the breaker.
	ProbeInterval time.Duration

	// BatchMax caps how many queued requests one batch may coalesce when
	// every replica is busy (0 = 8); it bounds workspace growth.
	BatchMax int

	// Cascade enables the float32 student fast path: every briefing first
	// runs on a float32 conversion of the teacher (wb.StudentOf), and only a briefing with a decision whose float32
	// gap is within the student's bound (wb.StudentBounds) re-runs on the
	// full float64 teacher under the same replica checkout. Every other
	// briefing took each decision with room to spare for float32's rounding,
	// so the wire carries the teacher's bytes for it too. /metrics gains
	// per-tier counters and latency histograms.
	Cascade bool
	// ConfidenceThreshold routes nothing: the cascade escalates on decision
	// gaps. It is kept, defaulted (0 = 0.5 when Cascade is set) and reported
	// as cascade.confidence_threshold only for scrapers and callers that
	// still set it.
	ConfidenceThreshold float64

	// CacheCapacity enables the content-addressed briefing cache and bounds
	// the briefings it holds (a briefing's raw alias does not count): hits
	// are served without a replica checkout and concurrent misses on one
	// cold key coalesce into a single computation (see internal/briefcache).
	// 0 disables caching — every request runs the pipeline.
	CacheCapacity int
	// CacheTTL is the default entry lifetime when no policy class matches
	// (0 = entries never expire).
	CacheTTL time.Duration
	// CachePolicy is the per-domain admission/TTL policy, keyed by the
	// optional ?src= query parameter (nil = admit everything).
	CachePolicy *briefcache.Policy
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = httpwire.DefaultMaxBodyBytes
	}
	if c.ReplicaRetries == 0 {
		c.ReplicaRetries = 1
	}
	if c.ReplicaRetries < 0 {
		c.ReplicaRetries = 0
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	if c.BatchMax == 0 {
		c.BatchMax = 8
	}
	if c.BatchMax < 1 {
		c.BatchMax = 1
	}
	if c.Cascade && c.ConfidenceThreshold == 0 {
		c.ConfidenceThreshold = 0.5
	}
	return c
}

// Server is the pool-backed briefing server, an http.Handler routing
// /brief, /healthz, /metrics and /admin/reload.
type Server struct {
	cfg     Config
	metrics *Metrics

	// pool is the live replica pool. Hot reload (reload.go) swaps it
	// atomically; the scheduler snapshots the pointer once per batch so one
	// briefing never straddles two generations. Always non-nil after
	// construction.
	pool atomic.Pointer[Pool]

	// Hot-reload state (reload.go): reloadSource is the registered bundle
	// loader behind /admin/reload and ReloadFromSource. The live pool's gen
	// is the model generation.
	reloadMu     sync.Mutex
	reloadSource ReloadSource

	// cache, when non-nil, serves repeat briefings without a replica
	// checkout and coalesces concurrent cold-key misses (see cache.go).
	cache *briefcache.Cache

	ready atomic.Bool

	// shutdownCh is closed by BeginShutdown; re-admission probers exit on
	// it so ejected replicas stay ejected through a drain.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once

	// Batch scheduler state (batch.go): admitted requests take a batchSlots
	// token (held until their response, bounding outstanding requests at
	// QueueDepth + pool size; a request that cannot take one is shed with
	// 429) and enqueue on batchCh; the dispatcher goroutine groups them into
	// batches and batchWG tracks the per-batch executors. batcherDone closes
	// when the dispatcher has drained and exited.
	batchCh     chan *batchItem
	batchSlots  chan struct{}
	batchWG     sync.WaitGroup
	batcherDone chan struct{}

	logMu sync.Mutex // serialises access-log lines
}

// New builds a Server around a trained GloVe-encoder Joint-WB that the
// caller keeps, over a NewPool of cfg.Replicas replicas: the pool serves a
// folded copy of m (wb.FoldForServing), so m stays the caller's to train. A
// binary that serves a bundle keeps no model and boots from wb.LoadServing
// through NewPool and NewFromPool instead.
func New(m *wb.JointWB, v *textproc.Vocab, cfg Config) (*Server, error) {
	teacher, err := wb.FoldForServing[float64](m)
	if err != nil {
		return nil, err
	}
	pool, err := NewPool(teacher, v, cfg.Replicas, cfg)
	if err != nil {
		return nil, err
	}
	return NewFromPool(pool, cfg), nil
}

// NewFromPool builds a Server over a built pool: NewPool's over a served
// bundle (cmd/wbserve), or PoolOf's. cfg.Replicas is ignored; the pool's
// size rules.
func NewFromPool(pool *Pool, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		metrics:    newMetrics(),
		shutdownCh: make(chan struct{}),
		// Channel capacity matches the slot count, so a request holding a
		// slot can always enqueue without blocking.
		batchCh:     make(chan *batchItem, cfg.QueueDepth+pool.Size()),
		batchSlots:  make(chan struct{}, cfg.QueueDepth+pool.Size()),
		batcherDone: make(chan struct{}),
	}
	pool.gen.Store(1)
	s.pool.Store(pool)
	if cfg.CacheCapacity > 0 {
		s.cache = briefcache.New(briefcache.Config{
			Capacity:   cfg.CacheCapacity,
			DefaultTTL: cfg.CacheTTL,
			Policy:     cfg.CachePolicy,
		})
	}
	s.ready.Store(true)
	go s.dispatchBatches()
	return s
}

// ServeHTTP implements http.Handler. It routes on the exact path, whatever
// the method: a path that is not one of the four, unclean ones included
// ("//brief", "/./brief"), is a 404.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/brief":
		s.handleBrief(w, r)
	case "/healthz":
		s.handleHealthz(w, r)
	case "/metrics":
		s.handleMetrics(w, r)
	case "/admin/reload":
		s.handleReload(w, r)
	default:
		http.NotFound(w, r)
	}
}

// Pool exposes the live replica pool (the current generation's).
func (s *Server) Pool() *Pool { return s.pool.Load() }

// BeginShutdown flips the server into draining mode: /healthz reports 503
// so load balancers stop routing here, and new /brief requests are refused
// with 503, while requests already admitted run to completion.
// Re-admission probers stop. Pair with httpwire's drain (which waits for
// in-flight handlers).
func (s *Server) BeginShutdown() {
	s.ready.Store(false)
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}

// drain begins shutdown and blocks until no request holds a replica and the
// batch dispatcher has exited, or ctx expires. It returns nil on a clean
// drain, and otherwise an error counting the requests still in flight and
// saying whether the dispatcher is still running: a drain that times out
// with nothing in flight is still a failed drain. httpwire's drain already
// waits for in-flight handlers, so wbserve only needs BeginShutdown; drain
// serves the tests that drive the handler directly.
func (s *Server) drain(ctx context.Context) error {
	s.BeginShutdown()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		n := s.metrics.InFlight.Load() + s.metrics.Queued.Load()
		exited := false
		select {
		case <-s.batcherDone:
			exited = true
		default:
		}
		if n == 0 && exited {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d requests in flight, dispatcher exited=%t: %w", n, exited, ctx.Err())
		case <-tick.C:
		}
	}
}

// Warm briefs html once on every tier of every replica before traffic
// arrives (see Pool.Warm), so no request meets a cold tier. An empty html
// warms on the default synthetic page, WarmupHTML(0).
func (s *Server) Warm(html string) error {
	if html == "" {
		html = WarmupHTML(0)
	}
	return s.pool.Load().Warm(html)
}

// noVisibleText is the 422 body of a page that renders to no sentence.
const noVisibleText = "serve: no visible text in page"

// renderPage is the vocabulary-independent first half of the pipeline
// (PAPER.md §2): DOM parse → rendered visible text → normalised sentences,
// the same sentences the serial wb.Briefer derives. It is the serving tier's
// one parse: handleBrief runs it once per request, Warm and the re-admission
// probe once per page. The visible text is what the cache's content key
// hashes; the sentences carry no token ids — those belong to the pool
// generation that briefs them (Pool.instance).
func renderPage(html string) (visible string, sents [][]string) {
	visible = htmldom.VisibleText(htmldom.Parse(html))
	return visible, textproc.NormalizeDocument(strings.Split(visible, "\n"))
}

// handleBrief is the serving hot path, one order of work for cached and
// uncached servers alike: request validation, the raw-key cache lookup, the
// page's one parse (no sentences is the 422, answered here), the content-key
// lookup and flight, then admission to the batch scheduler (batch.go), which
// runs the model stages and hands back the outcome for the JSON response.
func (s *Server) handleBrief(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Begin()
	lg := accessEntry{ID: r.Header.Get(httpwire.RequestIDHeader), Method: r.Method, Path: r.URL.Path, Remote: r.RemoteAddr,
		clock: stages.Start()}
	defer s.finish(&lg)

	if !s.ready.Load() {
		s.refuse(w, &lg, Draining, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if r.Method != http.MethodPost {
		s.refuse(w, &lg, BadMethod, http.StatusMethodNotAllowed, "POST the page HTML as the request body")
		return
	}

	// Body, with a hard 413 instead of silent truncation: a declared length
	// over the limit is refused unread, an undeclared one once it runs past.
	body, err := httpwire.Read(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	lg.clock.Mark(stageRead)
	tooLarge := errors.Is(err, httpwire.ErrTooLarge)
	if err != nil && !tooLarge {
		s.refuse(w, &lg, BadRequest, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	lg.BytesIn = len(body)
	if tooLarge {
		s.refuse(w, &lg, TooLarge, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}

	// The request's deadline runs from here but is armed only once level 1
	// of the cache stage has missed: a repeat post of known bytes is served
	// without a timer it would never consult, and without a parse.
	admitted := time.Now()
	var lookup rawLookup
	if s.cache != nil {
		var hit bool
		if lookup, hit = s.cacheServeRaw(w, &lg, r, body); hit {
			return
		}
	}

	// The page's one parse: the first lap of latency_ms.parse, whose second
	// is the token ids its replica's pool assigns.
	visible, sents := renderPage(string(body))
	lg.clock.Mark(stageParse)
	if len(sents) == 0 {
		// Unbriefable: refused before it can win a flight, take an admission
		// slot or occupy a replica.
		s.refuse(w, &lg, Unbriefable, http.StatusUnprocessableEntity, noVisibleText)
		return
	}
	lg.Tokens = wb.PageTokens(sents)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, admitted.Add(s.cfg.Timeout))
		defer cancel()
	}

	// Cache stage, level 2 and flights: content hits and coalesced waiters
	// are fully served here — no admission, no scheduler, no replica. A
	// winner gets a fill obligation that respondOutcome settles; the
	// deferred abandon is the backstop for every other exit (shed, timeout,
	// panic), turning the losers loose to retry instead of hanging.
	var fill *cacheFill
	if lookup.consult {
		var handled bool
		fill, handled = s.cacheServe(w, &lg, ctx, visible, lookup)
		if handled {
			return
		}
		defer fill.abandon()
	}

	s.enqueue(w, &lg, ctx, sents, min(lg.Tokens, wb.MaxPageTokens), fill)
}

// respondOutcome maps a pipeline outcome onto its HTTP response and outcome
// counter. faulted here means the retry budget is already spent. fill, when
// non-nil, is this request's cache-fill obligation: terminal outcomes
// (success bytes, 500) are published to coalesced waiters, and successes are
// inserted into the cache; context failures abandon via the caller's deferred
// backstop so waiters retry rather than inherit this client's deadline.
func (s *Server) respondOutcome(w http.ResponseWriter, lg *accessEntry, o pipelineOutcome, fill *cacheFill) {
	if o.faulted {
		if fill != nil {
			fill.flight.Complete(flightResult{o: o})
		}
		s.refuse(w, lg, ReplicaFailure, http.StatusInternalServerError,
			"briefing replica failed and the retry budget is spent")
		return
	}
	if o.ctxErr != nil {
		s.failCtx(w, lg, o.ctxErr)
		return
	}

	eb := getEncodeBuf()
	defer putEncodeBuf(eb)
	if err := eb.enc.Encode(o.brief); err != nil {
		s.refuse(w, lg, BadRequest, http.StatusInternalServerError, "encode briefing: "+err.Error())
		return
	}
	out := eb.buf.Bytes() // Encode appends the trailing '\n'
	if fill != nil {
		// Insert copies out of the pooled buffer; waiters and future hits
		// share that stable copy.
		stable := s.cache.Insert(fill.content, fill.raw, out, fill.ttl)
		fill.flight.Complete(flightResult{body: stable})
	}
	s.writeBrief(w, lg, out)
}

// writeBrief serves a briefing's JSON bytes, fresh from the encoder or
// cached: the miss path and every later hit write the same headers, status
// and body.
func (s *Server) writeBrief(w http.ResponseWriter, lg *accessEntry, out []byte) {
	s.settle(lg, OK, http.StatusOK)
	lg.BytesOut = len(out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// failCtx maps a context error to its HTTP response: 504 for an expired
// deadline, a logged-but-unsent cancel when the client is already gone.
func (s *Server) failCtx(w http.ResponseWriter, lg *accessEntry, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.refuse(w, lg, Timeout, http.StatusGatewayTimeout, "briefing deadline exceeded")
		return
	}
	s.settle(lg, Canceled, 499) // nginx convention: client closed request
}

// finish closes a request's clock at its reply and records it once: for a
// cache hit, everything after the body read into cache.hit_latency_ns; the
// laps so far into its access-log line, whose writing is then the log stage;
// and every stage it reached and its total into latency_ms. Without an
// access log there is no log stage and no clock read past the reply.
func (s *Server) finish(lg *accessEntry) {
	c := &lg.clock
	c.Mark(stageReply)
	m := s.metrics
	if lg.Cache == cacheRawHit || lg.Cache == cacheContentHit {
		m.CacheHitLatency.Observe(int64(c.Total() - c.Lap(stageRead)))
	}
	if s.cfg.AccessLog != nil {
		s.logAccess(lg)
		c.Mark(stageLog)
	}
	m.Latency.Observe(c)
}

// settle records how a request ended: its member of the requests_total
// partition and the status logged for it, in one call — a status cannot be
// recorded without an outcome.
func (s *Server) settle(lg *accessEntry, o metrics.Outcome[requestsTotal], status int) {
	s.metrics.Requests.End(o)
	lg.Status = status
}

// refuse settles a request that gets no briefing and writes its plain-text
// error, whose length the access log records. The statuses that tell the
// client to come back (503 draining, 429 shed) carry Retry-After.
func (s *Server) refuse(w http.ResponseWriter, lg *accessEntry, o metrics.Outcome[requestsTotal], status int, msg string) {
	s.settle(lg, o, status)
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfter)
	}
	http.Error(w, msg, status)
	lg.BytesOut = len(msg) + 1 // http.Error writes msg and a newline
}

// handleHealthz reports pool readiness: 200 with pool stats while serving
// (status "degraded" when ejected replicas have shrunk capacity), 503 once
// every replica is ejected or draining begins.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type health struct {
		Status   string `json:"status"`
		Replicas int    `json:"replicas"`
		Healthy  int    `json:"healthy"`
		Idle     int    `json:"idle"`
		Queued   int64  `json:"queued"`
		InFlight int64  `json:"in_flight"`
	}
	pool := s.pool.Load()
	h := health{
		Status:   "ok",
		Replicas: pool.Size(),
		Healthy:  pool.Healthy(),
		Idle:     pool.Idle(),
		Queued:   s.metrics.Queued.Load(),
		InFlight: s.metrics.InFlight.Load(),
	}
	code := http.StatusOK
	switch {
	case h.Healthy < h.Replicas:
		h.Status = "degraded"
	}
	if h.Healthy == 0 {
		h.Status = "unhealthy"
		code = http.StatusServiceUnavailable
	}
	if !s.ready.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

// handleMetrics serves the counter snapshot as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.metrics.snapshot(s.pool.Load(), s.cache, s.cfg.Cascade, s.cfg.ConfidenceThreshold))
}

// accessEntry is one structured access-log line. Struct field order is the
// JSON field order, stable across lines.
type accessEntry struct {
	Time     string          `json:"time"`
	ID       string          `json:"id,omitempty"` // the request's X-Request-Id (wbgate sends one on every attempt); omitted when absent
	Method   string          `json:"method"`
	Path     string          `json:"path"`
	Remote   string          `json:"remote,omitempty"`
	Status   int             `json:"status"`
	BytesIn  int             `json:"bytes_in"`
	Tokens   int             `json:"tokens"`          // the page's tokens before truncation; 0 when answered unparsed
	Cache    string          `json:"cache,omitempty"` // cache outcome (cacheRawHit …); empty when the cache was not consulted
	BytesOut int             `json:"bytes_out"`
	Tier     string          `json:"tier,omitempty"`  // the cascade tier that briefed it (cascade_requests_total's split); empty off the cascade
	Batch    int             `json:"batch,omitempty"` // the size of the batch that briefed it
	Gen      int64           `json:"gen,omitempty"`   // the generation of the pool that briefed it
	StagesMS json.RawMessage `json:"stages_ms"`       // the reached latency_ms stages and their laps, rendered from clock
	TotalMS  float64         `json:"total_ms"`

	clock metrics.Clock[serveStages] // the request's one clock (serveStages)
}

// logAccess writes lg as one JSON line to the access log, which must be set.
func (s *Server) logAccess(lg *accessEntry) {
	lg.Time = time.Now().UTC().Format(time.RFC3339Nano)
	eb := getEncodeBuf()
	defer putEncodeBuf(eb)
	eb.stages = lg.clock.AppendMS(eb.stages[:0])
	lg.StagesMS, lg.TotalMS = eb.stages, roundMS(lg.clock.Total())
	err := eb.enc.Encode(lg)
	lg.StagesMS = nil // eb.stages goes back to the pool
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(eb.buf.Bytes())
	s.logMu.Unlock()
}

// roundMS renders a duration as fractional milliseconds with microsecond
// resolution, keeping log lines compact.
func roundMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}
