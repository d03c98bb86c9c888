package serve

import (
	"context"
	"net/http"
	"time"

	"webbrief/internal/wb"
)

// This file is the batch scheduler, the only way a request reaches a
// replica: every admitted request enqueues for one dispatcher goroutine,
// which forms batches by replica occupancy. A request that finds a replica
// idle launches alone, at once — a batch of one, no added wait. When every
// replica is busy the dispatcher waits for the next one to free up and then
// coalesces whatever queued meanwhile, up to BatchMax, into one batch that
// briefs in fused B-row forward passes on that single checkout (see
// Replica), so saturation turns into wider matmuls instead of replica
// contention.
//
// Ownership is linear, so no item field needs a lock: the handler builds a
// batchItem and only ever touches ctx and result afterwards; the dispatcher
// owns it between the batchCh send and launch; exactly one executor
// goroutine owns it from launch until deliver. Each handoff is through a
// channel, which orders the accesses.

// batchItem is one admitted request waiting in (or running through) the
// scheduler. What crosses the queue is the parsed page — its sentences, which
// belong to no vocabulary — never token ids: those are assigned by the pool
// generation whose replica runs the batch, so they cannot outlive the
// vocabulary that made them across a hot reload.
type batchItem struct {
	ctx      context.Context
	sents    [][]string
	tokens   int // what the page costs a replica: its token count, capped at maxPageTokens
	enqueued time.Time

	// Executor-owned bookkeeping.
	inst      *wb.Instance  // sents under the executing pool's vocabulary, built at the first checkout
	queueWait time.Duration // enqueue → first replica checkout
	instDur   time.Duration // first checkout → inst built
	answered  bool

	result chan batchResult // capacity 1; at most one send, guarded by answered
}

// batchResult carries the request's pipeline outcome back to its handler.
type batchResult struct {
	o         pipelineOutcome
	queueWait time.Duration
	instDur   time.Duration
}

// deliver sends the outcome to the waiting handler, at most once. Only the
// item's executor goroutine calls it, so the answered guard needs no lock;
// the result channel's capacity means the send never blocks even if the
// handler already gave up on its context.
func (it *batchItem) deliver(o pipelineOutcome) {
	if it.answered {
		return
	}
	it.answered = true
	it.result <- batchResult{o: o, queueWait: it.queueWait, instDur: it.instDur}
}

// enqueue is handleBrief's tail: admit the parsed page, hand it to the
// dispatcher and wait for its outcome or the context. fill is the request's
// cache-fill obligation (nil when caching is off or the request bypassed the
// cache); shed and expired exits leave it to the caller's deferred abandon.
// It returns what assigning the page's token ids took — the tail of the
// request's parse stage, zero when no replica was reached.
func (s *Server) enqueue(w http.ResponseWriter, lg *accessEntry, ctx context.Context, sents [][]string, tokens int, fill *cacheFill) time.Duration {
	m := s.metrics
	it := &batchItem{
		ctx:      ctx,
		sents:    sents,
		tokens:   tokens,
		enqueued: time.Now(),
		result:   make(chan batchResult, 1),
	}
	// Admission: take a slot or shed. Slots are held until the response, so
	// at most QueueDepth requests wait while every replica is busy.
	select {
	case s.batchSlots <- struct{}{}:
	default:
		s.refuse(w, lg, Overload, http.StatusTooManyRequests, "briefing queue is full, retry later")
		return 0
	}
	defer func() { <-s.batchSlots }()
	m.Queued.Add(1)
	defer m.Queued.Add(-1)
	// Re-check readiness after the Queued increment: if this handler saw
	// ready=true here, BeginShutdown had not yet run, so the drain loop is
	// guaranteed to observe this request in Queued and wait for it.
	if !s.ready.Load() {
		s.refuse(w, lg, Draining, http.StatusServiceUnavailable, "server is draining")
		return 0
	}
	// Cannot block: channel capacity equals the slot count.
	s.batchCh <- it
	select {
	case res := <-it.result:
		m.QueueWait.Observe(res.queueWait)
		lg.QueueMS = roundMS(res.queueWait)
		s.respondOutcome(w, lg, res.o, fill)
		return res.instDur
	case <-ctx.Done():
		// The scheduler skips or ctxErr-delivers expired items; this
		// request's slot in a batch cannot poison its batchmates.
		s.failCtx(w, lg, ctx.Err())
		return 0
	}
}

// dispatchBatches is the scheduler goroutine: it forms a batch around each
// queued request in arrival order and hands it to an executor. On shutdown
// it keeps forming batches until every admitted request is answered, then
// exits.
func (s *Server) dispatchBatches() {
	defer close(s.batcherDone)
	for {
		select {
		case it := <-s.batchCh:
			s.formAndLaunch(it)
		case <-s.shutdownCh:
			s.drainBatcher()
			return
		}
	}
}

// formAndLaunch checks a replica out for the oldest queued request and
// launches the batch that forms around it. A replica idle right now takes
// the request alone — light load spreads across the pool instead of piling
// onto one replica. Otherwise the dispatcher blocks until a replica frees up
// (dropping leads whose context expires first; their handlers answer from
// ctx.Done) and then drains whatever queued meanwhile, up to BatchMax, into
// the same batch.
//
// The pool pointer is snapshotted before the checkout and re-read after the
// last member joined: if a hot reload swapped it in between, the replica goes
// back and formation restarts on the live pool. Every member therefore
// briefs on a generation at least as new as the one it read at its cache
// stage, and the executor's retries and Put target that one generation.
func (s *Server) formAndLaunch(first *batchItem) {
	batch := append(make([]*batchItem, 0, s.cfg.BatchMax), first)
	for {
		pool := s.pool.Load()
		rep, idle := pool.TryGet()
		if !idle {
			var err error
			if rep, err = pool.Get(batch[0].ctx); err != nil {
				if batch = batch[1:]; len(batch) == 0 {
					return
				}
				continue
			}
		drain:
			for len(batch) < s.cfg.BatchMax {
				select {
				case it := <-s.batchCh:
					batch = append(batch, it)
				default:
					break drain
				}
			}
		}
		if s.pool.Load() != pool {
			pool.Put(rep)
			continue
		}
		s.launch(pool, rep, batch)
		return
	}
}

// launch records the batch-formation metrics and starts the executor, which
// takes over the replica checkout.
func (s *Server) launch(pool *Pool, rep Replica, batch []*batchItem) {
	m := s.metrics
	m.BatchesTotal.Add(1)
	m.BatchSize.observe(int64(len(batch)))
	if len(batch) > 1 {
		m.CoalescedRequests.Add(int64(len(batch)))
	}
	now := time.Now()
	for _, it := range batch {
		m.BatchWait.Observe(now.Sub(it.enqueued))
	}
	s.batchWG.Add(1)
	go s.executeBatch(pool, rep, batch)
}

// drainBatcher runs after shutdown begins: keep dispatching what is already
// admitted, then wait until every enqueued request has left Queued and every
// executor has finished.
func (s *Server) drainBatcher() {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case it := <-s.batchCh:
			s.formAndLaunch(it)
		case <-tick.C:
			if s.metrics.Queued.Load() == 0 {
				s.batchWG.Wait()
				return
			}
		}
	}
}

// executeBatch runs one batch through the pipeline on rep, retrying
// unanswered members on a fresh replica of the same pool when one faults,
// within the per-request retry budget.
func (s *Server) executeBatch(pool *Pool, rep Replica, items []*batchItem) {
	defer s.batchWG.Done()
	m := s.metrics
	attempt := 0
	for {
		var live []*batchItem
		for _, it := range items {
			if it.ctx.Err() == nil {
				live = append(live, it)
			}
			// Expired items get no result; their handlers answer from
			// ctx.Done with the queue-expiry 504.
		}
		if len(live) == 0 {
			if rep != nil {
				pool.Put(rep)
			}
			return
		}
		if rep == nil {
			var err error
			if rep, err = pool.Get(live[0].ctx); err != nil {
				// The lead item's context died waiting for a replica; drop it
				// and keep trying for the rest.
				items = live[1:]
				continue
			}
		}
		// A member's first checkout ends its queue wait and assigns its token
		// ids, under this pool's vocabulary; a retry reuses the instance, since
		// retries stay on this pool. This is not a stage (runStage): it reads
		// the shared vocabulary, nothing of rep's, so it cannot fault a replica.
		checkout := time.Now()
		for _, it := range live {
			if it.inst == nil {
				it.queueWait = checkout.Sub(it.enqueued)
				it.inst = pool.instance(it.sents)
				it.instDur = time.Since(checkout) // its batchmates' ids included: it waited for them
			}
		}
		m.InFlight.Add(int64(len(live)))
		ok := s.runBatchOn(pool, rep, live)
		m.InFlight.Add(-int64(len(live)))
		if ok {
			return
		}
		// The replica faulted mid-batch and is already ejected (runStage);
		// members answered before the fault keep their responses.
		rep = nil
		var rem []*batchItem
		for _, it := range live {
			if !it.answered {
				rem = append(rem, it)
			}
		}
		if len(rem) == 0 {
			return
		}
		if attempt >= s.cfg.ReplicaRetries {
			for _, it := range rem {
				it.deliver(pipelineOutcome{faulted: true})
			}
			return
		}
		attempt++
		m.Retries.Add(int64(len(rem)))
		items = rem
	}
}

// runBatchOn briefs a batch on one replica: one batched encode and one
// batched decode over the members' instances. Stage latencies are observed
// once per member — each request did wait the whole stage — so stage sums are
// wall-clock waits, not CPU time. A faulted stage observes nothing (its
// duration is the fault's, not the pipeline's). Reports false when the replica
// faulted (it is already ejected and must not be Put back); on true the
// replica is back in the pool.
func (s *Server) runBatchOn(pool *Pool, rep Replica, items []*batchItem) bool {
	m := s.metrics
	insts := make([]*wb.Instance, len(items))
	for i, it := range items {
		insts[i] = it.inst
	}

	// No member drops between encode and decode: the encode stage retains
	// per-instance state on the replica that the decode stage consumes.
	// Deadlines are re-checked per member after decode instead.
	var briefs []*wb.Brief
	var decisions []wb.TierDecision
	t1 := time.Now()
	if !s.runStage(pool, rep, func() { briefs = rep.EncodeBatch(insts) }) {
		return false
	}
	t2 := time.Now()
	if !s.runStage(pool, rep, func() { decisions = rep.DecodeBatch(insts, briefs) }) {
		return false
	}
	encodeDur, decodeDur := t2.Sub(t1), time.Since(t2)
	if s.cfg.Cascade {
		s.observeCascade(decisions)
	}
	// The replica goes back before any member is answered, so a client that
	// has its response can count on the replica being idle again. Briefs hold
	// only strings and ints, never workspace memory.
	pool.Put(rep)

	for i, it := range items {
		m.Encode.Observe(encodeDur)
		m.Decode.Observe(decodeDur)
		if err := it.ctx.Err(); err != nil {
			it.deliver(pipelineOutcome{ctxErr: err})
			continue
		}
		it.deliver(pipelineOutcome{brief: briefs[i]})
	}
	return true
}
