package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/fault"
	"webbrief/internal/wb"
)

// okReplica briefs successfully — the healthy pool member. delay, when set,
// is a per-briefing service time that yields the processor, so concurrent
// clients can saturate the pool on any core count.
type okReplica struct {
	briefs atomic.Int64
	delay  time.Duration
}

func (r *okReplica) Encode(inst *wb.Instance) *wb.Brief { return &wb.Brief{Topic: []string{"ok"}} }
func (r *okReplica) Decode(inst *wb.Instance, b *wb.Brief) {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	r.briefs.Add(1)
}

// panicNReplica panics during its first n Encodes, then behaves.
type panicNReplica struct {
	mu      sync.Mutex
	panics  int
	encodes int
}

func (r *panicNReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.mu.Lock()
	r.encodes++
	p := r.panics > 0
	if p {
		r.panics--
	}
	r.mu.Unlock()
	if p {
		panic("chaos: injected encode panic")
	}
	return &wb.Brief{Topic: []string{"ok"}}
}
func (r *panicNReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// wedgeOnceReplica blocks its first Encode until released, then behaves.
type wedgeOnceReplica struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newWedgeOnceReplica() *wedgeOnceReplica {
	return &wedgeOnceReplica{started: make(chan struct{}, 1), release: make(chan struct{})}
}

func (r *wedgeOnceReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.once.Do(func() {
		r.started <- struct{}{}
		<-r.release
	})
	return &wb.Brief{Topic: []string{"ok"}}
}
func (r *wedgeOnceReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// TestChaosPanicEjectRetryReadmit: a replica that panics mid-Encode is
// ejected and the request transparently retries on a healthy replica; the
// ejected replica is probed and readmitted once it briefs cleanly, closing
// the breaker and restoring full capacity.
func TestChaosPanicEjectRetryReadmit(t *testing.T) {
	bad := &panicNReplica{panics: 1}
	good := &okReplica{}
	srv := NewFromPool(PoolOf(lift(bad), lift(good)), Config{ReplicaRetries: 2, ProbeInterval: 2 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// PoolOf's idle channel is FIFO: the first request draws bad.
	status, body, err := postBrief(ts.URL, "<p>x</p>")
	if err != nil || status != http.StatusOK {
		t.Fatalf("request through a panicking replica: status %d err %v", status, err)
	}
	if len(body) == 0 {
		t.Fatal("empty briefing body")
	}

	ms := srv.metrics
	if ms.Panics.Load() != 1 || ms.Retries.Load() != 1 || countOf(ms.Requests, ReplicaFailure) != 0 {
		t.Fatalf("panics=%d retries=%d failures=%d, want 1/1/0",
			ms.Panics.Load(), ms.Retries.Load(), countOf(ms.Requests, ReplicaFailure))
	}
	if srv.Pool().Ejections() != 1 {
		t.Fatalf("ejections=%d, want 1", srv.Pool().Ejections())
	}

	// The prober readmits bad after two clean probe briefings.
	waitCond(t, "replica readmission", func() bool { return srv.Pool().Healthy() == 2 })
	if srv.Pool().Readmissions() != 1 {
		t.Fatalf("readmissions=%d, want 1", srv.Pool().Readmissions())
	}
	closed, open, half := srv.Pool().BreakerStates()
	if closed != 2 || open != 0 || half != 0 {
		t.Fatalf("breaker states closed=%d open=%d half=%d, want 2/0/0", closed, open, half)
	}
	// The readmitted replica serves again.
	if status, _, err := postBrief(ts.URL, "<p>x</p>"); err != nil || status != http.StatusOK {
		t.Fatalf("post-readmission request: status %d err %v", status, err)
	}
}

// TestChaosRetryBudgetExhausted500: when every attempt lands on a
// panicking replica, the request ends in a clean 500 — not a crash, not a
// hung connection — and the counters say why.
func TestChaosRetryBudgetExhausted500(t *testing.T) {
	a := &panicNReplica{panics: 1 << 30}
	b := &panicNReplica{panics: 1 << 30}
	srv := NewFromPool(PoolOf(lift(a), lift(b)), Config{ReplicaRetries: 1, ProbeInterval: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _, err := postBrief(ts.URL, "<p>x</p>")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 after exhausting replica retries", status)
	}
	ms := srv.metrics
	if ms.Panics.Load() != 2 || ms.Retries.Load() != 1 || countOf(ms.Requests, ReplicaFailure) != 1 {
		t.Fatalf("panics=%d retries=%d failures=%d, want 2/1/1",
			ms.Panics.Load(), ms.Retries.Load(), countOf(ms.Requests, ReplicaFailure))
	}
	if srv.Pool().Healthy() != 0 {
		t.Fatalf("healthy=%d, want 0 with both replicas ejected", srv.Pool().Healthy())
	}

	// With zero healthy replicas /healthz goes unhealthy — load balancers
	// stop routing before clients see more 500s.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with zero healthy replicas, want 503", resp.StatusCode)
	}
}

// TestChaosStallWatchdogEjects: a wedged stage trips the stall watchdog —
// the request retries elsewhere immediately, the wedged replica is ejected,
// and once the wedge resolves the prober brings it back.
func TestChaosStallWatchdogEjects(t *testing.T) {
	wedge := newWedgeOnceReplica()
	good := &okReplica{}
	srv := NewFromPool(PoolOf(lift(wedge), lift(good)), Config{
		ReplicaRetries: 1,
		StallTimeout:   10 * time.Millisecond,
		ProbeInterval:  2 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _, err := postBrief(ts.URL, "<p>x</p>")
	if err != nil || status != http.StatusOK {
		t.Fatalf("request through a wedged replica: status %d err %v", status, err)
	}
	ms := srv.metrics
	if ms.Stalls.Load() != 1 || ms.Retries.Load() != 1 {
		t.Fatalf("stalls=%d retries=%d, want 1/1", ms.Stalls.Load(), ms.Retries.Load())
	}
	if srv.Pool().Healthy() != 1 {
		t.Fatalf("healthy=%d, want 1 while the wedge holds", srv.Pool().Healthy())
	}

	// Resolve the wedge; the prober readmits.
	<-wedge.started
	close(wedge.release)
	waitCond(t, "wedged replica readmission", func() bool { return srv.Pool().Healthy() == 2 })
	if srv.Pool().Readmissions() != 1 {
		t.Fatalf("readmissions=%d, want 1", srv.Pool().Readmissions())
	}
}

// wedgePanicReplica blocks Encode until released, then panics — the
// mid-drain failure mode of the shutdown chaos test.
type wedgePanicReplica struct {
	started chan struct{}
	release chan struct{}
}

func newWedgePanicReplica() *wedgePanicReplica {
	return &wedgePanicReplica{started: make(chan struct{}, 8), release: make(chan struct{})}
}

func (r *wedgePanicReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.started <- struct{}{}
	<-r.release
	panic("chaos: replica panic mid-drain")
}
func (r *wedgePanicReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// TestChaosShutdownDrainWithPanics is the shutdown-race chaos test: two
// requests are in flight and one is queued when shutdown begins; both
// in-flight replicas then panic. The drain must still converge — panicking
// requests end in clean 500s, the queued request times out with 504, new
// requests are refused with 503, and Drain reports zero in flight. Run
// under -race this exercises the eject/drain/prober interleavings.
func TestChaosShutdownDrainWithPanics(t *testing.T) {
	a, b := newWedgePanicReplica(), newWedgePanicReplica()
	srv := NewFromPool(PoolOf(lift(a), lift(b)), Config{
		QueueDepth:     2,
		Timeout:        300 * time.Millisecond,
		ReplicaRetries: -1, // no retries: panic → 500 immediately
		ProbeInterval:  time.Hour,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(chan int, 3)
	post := func() {
		status, _, err := postBrief(ts.URL, "<p>x</p>")
		if err != nil {
			status = -1
		}
		results <- status
	}
	// Two requests occupy both replicas; a third waits in the queue.
	go post()
	go post()
	<-a.started
	<-b.started
	go post()
	// Queued counts every admitted, unanswered request: two briefing, one waiting.
	waitCond(t, "third request to queue", func() bool { return srv.metrics.Queued.Load() == 3 })

	// Shutdown begins with all of that in flight; then the replicas blow up.
	srv.BeginShutdown()
	drained := make(chan int64, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.drain(ctx)
	}()
	close(a.release)
	close(b.release)

	// A request arriving mid-drain is refused, not queued.
	if status, _, err := postBrief(ts.URL, "<p>x</p>"); err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request: status %d err %v, want 503", status, err)
	}

	got := map[int]int{}
	for i := 0; i < 3; i++ {
		got[<-results]++
	}
	if got[http.StatusInternalServerError] != 2 || got[http.StatusGatewayTimeout] != 1 {
		t.Fatalf("outcomes %v, want two 500s (panics) and one 504 (queued past deadline)", got)
	}
	if n := <-drained; n != 0 {
		t.Fatalf("drain left %d requests in flight", n)
	}

	ms := srv.metrics
	if ms.Panics.Load() != 2 || countOf(ms.Requests, ReplicaFailure) != 2 || countOf(ms.Requests, Timeout) != 1 || countOf(ms.Requests, Draining) != 1 {
		t.Fatalf("panics=%d failures=%d timeouts=%d draining=%d, want 2/2/1/1",
			ms.Panics.Load(), countOf(ms.Requests, ReplicaFailure), countOf(ms.Requests, Timeout), countOf(ms.Requests, Draining))
	}
	// Requests partition: 2×500 + 1×504 + 1×503.
	if total := totalOf(ms.Requests); total != 4 ||
		total != countOf(ms.Requests, ReplicaFailure)+countOf(ms.Requests, Timeout)+countOf(ms.Requests, Draining) {
		t.Fatalf("requests_total=%d does not partition into outcomes", total)
	}
	// Probers exited on shutdown: the panicked replicas stay ejected.
	if srv.Pool().Healthy() != 0 {
		t.Fatalf("healthy=%d after drain, want 0 (probers stop at shutdown)", srv.Pool().Healthy())
	}
}

// TestPoolWrapOne covers the seam wbserve's -chaos flag uses: wrapping one
// idle replica in a fault injector keeps pool accounting intact and the
// wrapped replica keeps serving.
func TestPoolWrapOne(t *testing.T) {
	p := PoolOf(lift(&okReplica{}), lift(&okReplica{}))
	sched := fault.NewSchedule(fault.Config{Seed: 1, Rate: 0})
	if err := p.WrapOne(func(r Replica) Replica { return fault.NewReplica(r, sched) }); err != nil {
		t.Fatal(err)
	}
	if p.Healthy() != 2 || p.Idle() != 2 {
		t.Fatalf("healthy=%d idle=%d after WrapOne, want 2/2", p.Healthy(), p.Idle())
	}
	closed, open, half := p.BreakerStates()
	if closed != 2 || open != 0 || half != 0 {
		t.Fatalf("breaker states %d/%d/%d after WrapOne, want 2/0/0", closed, open, half)
	}
	srv := NewFromPool(p, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ { // both pool members serve, including the wrapped one
		if status, _, err := postBrief(ts.URL, "<p>x</p>"); err != nil || status != http.StatusOK {
			t.Fatalf("request %d through wrapped pool: status %d err %v", i, status, err)
		}
	}

	drained := PoolOf(lift(&okReplica{}))
	drained.TryGet()
	if err := drained.WrapOne(func(r Replica) Replica { return r }); err == nil {
		t.Fatal("WrapOne on a pool with no idle replica should error")
	}
}

// TestChaosServeSoakFaultedReplica is the seeded serve soak of the
// acceptance criteria: a 3-replica pool with one replica wrapped in a
// fault.Replica at ≥30% fault rate (panics, wedges, slow responses). Healthy
// replicas must keep p99 success — every client request ends in a briefing
// unless the retry budget provably ran out — /metrics must reconcile exactly
// with the outcomes the clients observed, capacity recovers fully, and the
// server drains clean. Two scenarios of the same server: one client, where
// every batch is a batch of one and each fault event costs exactly one
// retry or failure; and eight clients saturating the pool, where batches
// coalesce and a fault mid-batch may cost every unanswered member a retry,
// never a hung or wrongly-failed batchmate. Skipped under -short;
// scripts/check.sh runs it race-enabled.
func TestChaosServeSoakFaultedReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	for _, sc := range []struct {
		name               string
		seed               int64
		clients, perClient int
		delay              time.Duration
	}{
		{"one-client", 11, 1, 200, 0},
		{"eight-clients", 17, 8, 25, 300 * time.Microsecond},
	} {
		t.Run(sc.name, func(t *testing.T) {
			sched := fault.NewSchedule(fault.Config{
				Seed: sc.seed, Rate: 0.35,
				ErrorWeight: 1, TimeoutWeight: 1, SlowWeight: 1, GarbageWeight: 1,
				SlowDelay:   time.Millisecond,
				TimeoutHang: 40 * time.Millisecond, // wedge: resolves after the watchdog fires
			})
			faulted := fault.NewReplica(lift(&okReplica{delay: sc.delay}), sched)
			srv := NewFromPool(PoolOf(faulted, lift(&okReplica{delay: sc.delay}), lift(&okReplica{delay: sc.delay})), Config{
				ReplicaRetries: 2,
				StallTimeout:   15 * time.Millisecond,
				ProbeInterval:  2 * time.Millisecond,
				BatchMax:       4,
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var ok200, fail500, other atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < sc.clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < sc.perClient; i++ {
						status, _, err := postBrief(ts.URL, "<p>soak</p>")
						switch {
						case err != nil:
							other.Add(1)
						case status == http.StatusOK:
							ok200.Add(1)
						case status == http.StatusInternalServerError:
							fail500.Add(1)
						default:
							other.Add(1)
						}
					}
				}()
			}
			wg.Wait()

			total := int64(sc.clients * sc.perClient)
			if other.Load() != 0 {
				t.Fatalf("%d requests ended outside the 200/500 contract", other.Load())
			}
			// p99 success: with a 2-retry budget against one faulted replica in
			// three, terminal 500s need three consecutive faulted draws.
			if ok200.Load() < total*99/100 {
				t.Fatalf("successes %d/%d, below p99 with one faulted replica", ok200.Load(), total)
			}

			// /metrics reconciles exactly with the client-observed outcomes.
			ms := srv.metrics
			if totalOf(ms.Requests) != total {
				t.Fatalf("requests_total=%d, clients sent %d", totalOf(ms.Requests), total)
			}
			if countOf(ms.Requests, OK) != ok200.Load() || countOf(ms.Requests, ReplicaFailure) != fail500.Load() {
				t.Fatalf("server ok=%d/500=%d, clients saw %d/%d",
					countOf(ms.Requests, OK), countOf(ms.Requests, ReplicaFailure), ok200.Load(), fail500.Load())
			}
			if totalOf(ms.Requests) != countOf(ms.Requests, OK)+countOf(ms.Requests, ReplicaFailure) {
				t.Fatalf("counters do not partition: total=%d ok=%d failure=%d",
					totalOf(ms.Requests), countOf(ms.Requests, OK), countOf(ms.Requests, ReplicaFailure))
			}
			// Every recovered fault event retried or ended each unanswered
			// member of its batch — exactly one request when batches are
			// singletons.
			events, settled := ms.Panics.Load()+ms.Stalls.Load(), ms.Retries.Load()+countOf(ms.Requests, ReplicaFailure)
			if events == 0 {
				t.Fatal("soak injected no faults; the chaos schedule is not reaching the replica")
			}
			if sc.clients == 1 {
				if events != settled || ms.CoalescedRequests.Load() != 0 || ms.BatchesTotal.Load() != total {
					t.Fatalf("one client: panics=%d stalls=%d retries=%d failures=%d coalesced=%d batches=%d, want events==retries+failures, no coalescing, %d batches",
						ms.Panics.Load(), ms.Stalls.Load(), ms.Retries.Load(), countOf(ms.Requests, ReplicaFailure),
						ms.CoalescedRequests.Load(), ms.BatchesTotal.Load(), total)
				}
			} else {
				if settled < events {
					t.Fatalf("fault events outnumber their settlements: panics=%d stalls=%d retries=%d failures=%d",
						ms.Panics.Load(), ms.Stalls.Load(), ms.Retries.Load(), countOf(ms.Requests, ReplicaFailure))
				}
				if ms.CoalescedRequests.Load() == 0 {
					t.Fatalf("batches=%d coalesced=0 with %d clients saturating 3 replicas", ms.BatchesTotal.Load(), sc.clients)
				}
			}
			if ms.BatchSize.sum.Load() != total {
				t.Fatalf("batch_size.sum=%d, want %d (every request dispatched in exactly one batch)", ms.BatchSize.sum.Load(), total)
			}

			// Quiesce: the prober returns the faulted replica to rotation, so
			// capacity recovers fully and ejections balance readmissions.
			waitCond(t, "pool capacity recovery", func() bool { return srv.Pool().Healthy() == 3 })
			if srv.Pool().Ejections() != srv.Pool().Readmissions() {
				t.Fatalf("ejections=%d readmissions=%d after quiesce",
					srv.Pool().Ejections(), srv.Pool().Readmissions())
			}
			if ms.InFlight.Load() != 0 || ms.Queued.Load() != 0 {
				t.Fatalf("residual in_flight=%d queued=%d", ms.InFlight.Load(), ms.Queued.Load())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if n := srv.drain(ctx); n != 0 {
				t.Fatalf("drain left %d requests", n)
			}
		})
	}
}

// encodeSizes records the size of every EncodeBatch that reaches the replica
// it wraps.
type encodeSizes struct {
	Replica
	mu    sync.Mutex
	sizes []int
}

func (r *encodeSizes) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	r.mu.Lock()
	r.sizes = append(r.sizes, len(insts))
	r.mu.Unlock()
	return r.Replica.EncodeBatch(insts)
}

// TestChaosWrappedCascadeReplicaBatchesAndCounts: what `wbserve -cascade
// -chaos` builds — a cascade replica inside a fault.Replica — is a Replica
// like any other. A batch that forms behind the busy pool reaches the inner
// replica as ONE fused encode of the batch's size, not member by member, and
// every OK briefing lands in cascade_requests_total with the tier split
// exact, whichever way each page's confidence fell.
func TestChaosWrappedCascadeReplicaBatchesAndCounts(t *testing.T) {
	srv, ts, pages, _ := cascadeServer(t, Config{Replicas: 1, BatchMax: 4}, 0.5)
	var inner *encodeSizes
	quiet := fault.NewSchedule(fault.Config{Seed: 1, Rate: 0})
	if err := srv.Pool().WrapOne(func(r Replica) Replica {
		inner = &encodeSizes{Replica: r}
		return fault.NewReplica(inner, quiet)
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	postWhileHeld(t, srv, ts.URL, pageHTML(pages)[:n])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if left := srv.drain(ctx); left != 0 {
		t.Fatalf("server did not quiesce: %d requests in flight", left)
	}

	if len(inner.sizes) != 1 || inner.sizes[0] != n {
		t.Fatalf("inner replica saw encodes of sizes %v, want one fused encode of %d", inner.sizes, n)
	}
	if quiet.Draws() != 1 {
		t.Fatalf("schedule drew %d faults for one batch, want 1", quiet.Draws())
	}
	m := srv.metrics
	ok := countOf(m.Requests, OK)
	student, teacher := countOf(m.CascadeRequests, CascadeStudent), countOf(m.CascadeRequests, CascadeTeacher)
	if ok != n || totalOf(m.CascadeRequests) != ok || student+teacher != ok {
		t.Fatalf("cascade_requests_total=%d (student %d + teacher %d), responses.ok=%d, want all %d",
			totalOf(m.CascadeRequests), student, teacher, ok, n)
	}
	if got := m.StudentLatency.count.Load(); got != ok {
		t.Fatalf("student latency histogram has %d observations, want %d", got, ok)
	}
	if got := m.TeacherLatency.count.Load(); got != teacher {
		t.Fatalf("teacher latency histogram has %d observations, want %d", got, teacher)
	}
}
