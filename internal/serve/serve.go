// Package serve is the production HTTP serving subsystem for webpage
// briefings — the deployment form §I motivates, built to the ROADMAP's
// heavy-traffic north star. It replaces the single-mutex wb.Briefer path
// with:
//
//   - a replica pool: each generation is one folded eval-mode model per tier
//     (see NewPool, wb.FoldForServing), read-only and shared, plus N replicas
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/htmldom"
	"webbrief/internal/httpbody"
	"webbrief/internal/metrics"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// DefaultMaxBodyBytes bounds a briefing request body when Config leaves
// MaxBodyBytes zero.
const DefaultMaxBodyBytes = 4 << 20

// Config sizes a Server. The zero value is usable: GOMAXPROCS replicas, a
// 64-deep admission queue, no deadline, the default body limit, beam 8,
// one replica retry, probing every 25ms with 2 successes to readmit.
type Config struct {
	Replicas     int           // model replicas (0 = GOMAXPROCS)
	QueueDepth   int           // requests allowed to wait for a replica before 429 (<0 = none wait)
	Timeout      time.Duration // per-request deadline, queue wait included (0 = none)
	MaxBodyBytes int64         // request body limit (0 = DefaultMaxBodyBytes)
	BeamWidth    int           // topic beam width (0 = 8)
	RetryAfter   time.Duration // advisory Retry-After on 429 (0 = 1s)
	AccessLog    io.Writer     // JSON-line access log (nil = disabled)

	// ReplicaRetries is how many times a request whose replica panicked or
	// stalled is re-run on another replica before 500 (0 = 1, <0 = none).
	ReplicaRetries int
	// StallTimeout is the per-stage watchdog: a stage exceeding it marks
	// the replica wedged and ejects it (0 = disabled). Set it well above
	// the slowest healthy stage.
	StallTimeout time.Duration
	// ProbeInterval is the re-admission probe cadence for ejected
	// replicas (0 = 25ms); ProbeSuccesses consecutive clean probe
	// briefings close the breaker (0 = 2).
	ProbeInterval  time.Duration
	ProbeSuccesses int

	// BatchMax caps how many queued requests one batch may coalesce when
	// every replica is busy (0 = 8); it bounds workspace growth.
	BatchMax int

	// Cascade enables the float32 student fast path: every briefing first
	// runs on a float32 conversion of the model (wb.ConvertJointWB; GloVe
	// encoders only), and only decodes whose confidence score falls below
	// ConfidenceThreshold re-run on the full float64 teacher under the same
	// replica checkout. /metrics gains per-tier counters and latency
	// histograms.
	Cascade bool
	// ConfidenceThreshold is the cascade escalation cutoff in [0,1] on the
	// student's decode confidence score (0 = 0.5 when Cascade is set). The
	// score is never negative, so a negative threshold never escalates;
	// values above 1 escalate every briefing.
	ConfidenceThreshold float64

	// CacheCapacity enables the content-addressed briefing cache: hits are
	// served without a replica checkout and concurrent misses on one cold
	// key coalesce into a single computation (see internal/briefcache).
	// 0 disables caching — every request runs the pipeline.
	CacheCapacity int
	// CacheShards is the cache shard count (0 = briefcache's default).
	CacheShards int
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
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.BeamWidth == 0 {
		c.BeamWidth = 8
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
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
	if c.ProbeSuccesses == 0 {
		c.ProbeSuccesses = 2
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

// Server is the pool-backed briefing server. Mount it directly (it is an
// http.Handler routing /brief, /healthz and /metrics) or pick individual
// handlers off Mux.
type Server struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux

	// pool is the live replica pool. Hot reload (reload.go) swaps it
	// atomically; the scheduler snapshots the pointer once per batch so one
	// briefing never straddles two generations. Always non-nil after
	// construction.
	pool atomic.Pointer[Pool]

	// Hot-reload state (reload.go): generation starts at 1 for the boot
	// model and bumps per completed reload; reloadSource is the registered
	// bundle loader behind /admin/reload and ReloadFromSource.
	generation   atomic.Int64
	reloads      atomic.Int64
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

// New builds a Server around a trained GloVe-encoder Joint-WB bundle, over
// a NewPool of cfg.Replicas replicas.
func New(m *wb.JointWB, v *textproc.Vocab, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(m, v, cfg.Replicas, cfg)
	if err != nil {
		return nil, err
	}
	return NewFromPool(pool, cfg), nil
}

// NewFromPool builds a Server over pre-built replicas (custom models,
// tests). cfg.Replicas is ignored; the pool's size rules.
func NewFromPool(pool *Pool, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		metrics:    newMetrics(),
		shutdownCh: make(chan struct{}),
		mux:        http.NewServeMux(),
		// Channel capacity matches the slot count, so a request holding a
		// slot can always enqueue without blocking.
		batchCh:     make(chan *batchItem, cfg.QueueDepth+pool.Size()),
		batchSlots:  make(chan struct{}, cfg.QueueDepth+pool.Size()),
		batcherDone: make(chan struct{}),
	}
	s.pool.Store(pool)
	s.generation.Store(1)
	if cfg.CacheCapacity > 0 {
		s.cache = briefcache.New(briefcache.Config{
			Capacity:   cfg.CacheCapacity,
			Shards:     cfg.CacheShards,
			DefaultTTL: cfg.CacheTTL,
			Policy:     cfg.CachePolicy,
		})
	}
	s.ready.Store(true)
	s.mux.HandleFunc("/brief", s.handleBrief)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	go s.dispatchBatches()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handler returns the route mux (alias of the Server itself).
func (s *Server) Handler() http.Handler { return s }

// Pool exposes the live replica pool (the current generation's).
func (s *Server) Pool() *Pool { return s.pool.Load() }

// BeginShutdown flips the server into draining mode: /healthz reports 503
// so load balancers stop routing here, and new /brief requests are refused
// with 503, while requests already admitted run to completion.
// Re-admission probers stop. Pair with http.Server.Shutdown (which waits
// for in-flight handlers).
func (s *Server) BeginShutdown() {
	s.ready.Store(false)
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}

// drain begins shutdown and blocks until no request holds a replica and the
// batch dispatcher has exited, or ctx expires. It returns the number of
// requests still in flight (0 on a clean drain). http.Server.Shutdown
// already waits for in-flight handlers, so wbserve only needs
// BeginShutdown; drain serves the tests that drive the handler directly.
func (s *Server) drain(ctx context.Context) int64 {
	s.BeginShutdown()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		n := s.metrics.InFlight.Load() + s.metrics.Queued.Load()
		if n == 0 {
			select {
			case <-s.batcherDone:
				return 0
			default:
			}
		}
		select {
		case <-ctx.Done():
			return n
		case <-tick.C:
		}
	}
}

// Warm pre-grows every replica workspace to steady state before traffic
// arrives (see Pool.Warm), so the first real request already runs the
// allocation-free path. An empty html warms on the default synthetic page.
func (s *Server) Warm(html string) error {
	if html == "" {
		html = WarmupHTML(0)
	}
	return s.pool.Load().Warm(html)
}

// maxPageTokens is the most tokens of one page a replica runs: the paper's
// document scale (PAPER.md: 2k-token docs). A longer page is briefed on its
// head — encode is linear in tokens and a batch runs in lockstep, so without
// a ceiling one legal MaxBodyBytes page holds a replica, and every batchmate,
// for as long as all its tokens take.
const maxPageTokens = 2048

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
	start := time.Now()
	m := s.metrics
	m.Requests.Begin()
	lg := accessEntry{Method: r.Method, Path: r.URL.Path, Remote: r.RemoteAddr}
	defer func() {
		m.Total.Observe(time.Since(start))
		lg.TotalMS = roundMS(time.Since(start))
		s.logAccess(&lg)
	}()

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
	body, err := httpbody.Read(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	tooLarge := errors.Is(err, httpbody.ErrTooLarge)
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

	// The page's one parse. latency_ms.parse is HTML → instance, observed
	// once per request that got this far: the time spent here plus, for a
	// request that reaches a replica, its id assignment (enqueue reports it).
	parseStart := time.Now()
	visible, sents := renderPage(string(body))
	parse := time.Since(parseStart)
	defer func() { m.Parse.Observe(parse) }()
	if len(sents) == 0 {
		// Unbriefable: refused before it can win a flight, take an admission
		// slot or occupy a replica.
		s.refuse(w, &lg, Unbriefable, http.StatusUnprocessableEntity, noVisibleText)
		return
	}
	for _, sent := range sents {
		lg.Tokens += 1 + len(sent) // the sentence's [CLS] and its words
	}

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

	parse += s.enqueue(w, &lg, ctx, sents, min(lg.Tokens, maxPageTokens), fill)
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

// settle records how a request ended: its member of the requests_total
// partition and the status logged for it, in one call — a status cannot be
// recorded without an outcome.
func (s *Server) settle(lg *accessEntry, o metrics.Outcome[requestsTotal], status int) {
	s.metrics.Requests.End(o)
	lg.Status = status
}

// refuse settles a request that gets no briefing and writes its plain-text
// error. The statuses that tell the client to come back (503 draining, 429
// shed) carry the configured Retry-After.
func (s *Server) refuse(w http.ResponseWriter, lg *accessEntry, o metrics.Outcome[requestsTotal], status int, msg string) {
	s.settle(lg, o, status)
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	}
	http.Error(w, msg, status)
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
	enc.Encode(s.metrics.snapshot(s.pool.Load(), s.cache, s.cfg.Cascade, s.cfg.ConfidenceThreshold,
		s.generation.Load(), s.reloads.Load()))
}

// accessEntry is one structured access-log line. Struct field order is the
// JSON field order, stable across lines.
type accessEntry struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Remote   string  `json:"remote,omitempty"`
	Status   int     `json:"status"`
	BytesIn  int     `json:"bytes_in"`
	Tokens   int     `json:"tokens"` // the page's tokens before truncation; 0 when answered unparsed
	BytesOut int     `json:"bytes_out"`
	QueueMS  float64 `json:"queue_ms"`
	TotalMS  float64 `json:"total_ms"`
}

// logAccess emits one JSON line, if access logging is configured.
func (s *Server) logAccess(lg *accessEntry) {
	if s.cfg.AccessLog == nil {
		return
	}
	lg.Time = time.Now().UTC().Format(time.RFC3339Nano)
	eb := getEncodeBuf()
	defer putEncodeBuf(eb)
	if err := eb.enc.Encode(lg); err != nil {
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

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
