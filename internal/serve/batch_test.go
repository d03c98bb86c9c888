package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/ag"
	"webbrief/internal/fault"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/wb"
)

// holdPool checks every replica out of srv's live pool, so requests posted
// meanwhile queue in the scheduler instead of running. The returned release
// puts them back.
func holdPool(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	pool := srv.Pool()
	held := make([]Replica, 0, pool.Size())
	for i := 0; i < pool.Size(); i++ {
		r, ok := pool.TryGet()
		if !ok {
			t.Fatalf("holdPool: replica %d of %d not idle", i, pool.Size())
		}
		held = append(held, r)
	}
	return func() {
		for _, r := range held {
			pool.Put(r)
		}
	}
}

// postWhileHeld forms batches deterministically by occupancy: it holds every
// replica, posts one request per page concurrently, waits until the
// dispatcher owns the oldest and the rest sit in the queue, then releases —
// so the scheduler must form exactly ⌈n/BatchMax⌉ batches. It returns the
// response bodies in page order.
func postWhileHeld(t *testing.T, srv *Server, url string, pages []string) [][]byte {
	t.Helper()
	release := holdPool(t, srv)
	n := len(pages)
	bodies := make([][]byte, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i, html := range pages {
		wg.Add(1)
		go func(i int, html string) {
			defer wg.Done()
			status, body, err := postBrief(url, html)
			if err != nil || status != http.StatusOK {
				errs <- errors.New("post while held: status " + http.StatusText(status))
				return
			}
			bodies[i] = body
		}(i, html)
	}
	waitCond(t, "all requests to queue behind the held pool", func() bool {
		return srv.metrics.Queued.Load() == int64(n) && len(srv.batchCh) == n-1
	})
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return bodies
}

// serialWire returns the exact wire bytes the serial wb.Briefer reference
// produces for each page: the brief JSON plus json.Encoder's trailing
// newline.
func serialWire(t *testing.T, serial *wb.Briefer, pages []string) [][]byte {
	t.Helper()
	want := make([][]byte, len(pages))
	for i, html := range pages {
		b, err := serial.BriefHTML(html)
		if err != nil {
			t.Fatalf("serial brief %d: %v", i, err)
		}
		j, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(j, '\n')
	}
	return want
}

// TestBatchedWireEquivalence is the tentpole acceptance test: whatever batch
// a request lands in, the server answers with bytes identical to the serial
// wb.Briefer path. Rounds of 8/5/3/1 requests queued behind a held replica
// form full, partial and singleton batches over ragged real pages — exactly
// ⌈n/BatchMax⌉ of them — so the fused B-row forward and the batch of one,
// directly and through the fault wrapper (which speaks the same batched
// contract and must pass every batch on whole), each produced the bytes.
func TestBatchedWireEquivalence(t *testing.T) {
	m, v, corpusPages := trainedModel(t)
	const beam = 2
	m.Cfg.BeamSize = beam
	pages := pageHTML(corpusPages)
	want := serialWire(t, wb.NewBriefer(m, v, beam, 0), pages)

	for _, wrapped := range []bool{false, true} {
		name := "batched"
		if wrapped {
			name = "fault-wrapped"
		}
		t.Run(name, func(t *testing.T) {
			srv, err := New(m, v, Config{Replicas: 1, BatchMax: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Warm(""); err != nil {
				t.Fatalf("warm: %v", err)
			}
			if wrapped {
				quiet := fault.NewSchedule(fault.Config{Seed: 1, Rate: 0})
				if err := srv.Pool().WrapOne(func(r Replica) Replica { return fault.NewReplica(r, quiet) }); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()

			for round, size := range []int{8, 5, 3, 1} {
				got := postWhileHeld(t, srv, ts.URL, pages[:size])
				for c := range got {
					if !bytes.Equal(got[c], want[c]) {
						t.Fatalf("round %d client %d: response diverges from serial path:\n got %s\nwant %s",
							round, c, got[c], want[c])
					}
				}
			}

			// The batching /metrics block: every request above passed through
			// the scheduler in exactly one batch, and the request outcome
			// partition stayed exact alongside it.
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var snap metricsSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			const total = 8 + 5 + 3 + 1
			if snap.RequestsTotal != total || snap.Responses.Get(OK) != total {
				t.Fatalf("requests_total=%d ok=%d, want %d/%d", snap.RequestsTotal, snap.Responses.Get(OK), total, total)
			}
			// 8 → 4+4, 5 → 4+1, 3 → 3, 1 → 1.
			if snap.Batching.BatchesTotal != 6 || snap.Batching.BatchSize.Count != 6 {
				t.Fatalf("batches_total=%d batch_size.count=%d, want 6/6",
					snap.Batching.BatchesTotal, snap.Batching.BatchSize.Count)
			}
			if snap.Batching.CoalescedRequestsTotal != 8+4+3 {
				t.Fatalf("coalesced_requests_total=%d, want 15", snap.Batching.CoalescedRequestsTotal)
			}
			if snap.Batching.BatchSize.Sum != total {
				t.Fatalf("batch_size sum %d, want %d (every request in exactly one batch)",
					snap.Batching.BatchSize.Sum, total)
			}
			if snap.Batching.BatchWaitNS.Count != total {
				t.Fatalf("batch_wait_ns count %d, want %d (one wait per request)",
					snap.Batching.BatchWaitNS.Count, total)
			}
		})
	}
}

// blockingReplica parks every Encode until released, so a test can hold the
// pool's only replica while later requests queue behind it.
type blockingReplica struct {
	started chan struct{}
	release chan struct{}
}

func newBlockingReplica() *blockingReplica {
	return &blockingReplica{started: make(chan struct{}, 8), release: make(chan struct{})}
}

func (r *blockingReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.started <- struct{}{}
	<-r.release
	return &wb.Brief{Topic: []string{"ok"}}
}
func (r *blockingReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// TestIdleReplicaTakesRequestAlone pins the formation policy at light load:
// a request that finds a replica idle launches at once as a batch of one —
// it neither waits for batchmates nor queues behind a busy replica while
// another sits idle.
func TestIdleReplicaTakesRequestAlone(t *testing.T) {
	a, b := newBlockingReplica(), newBlockingReplica()
	srv := NewFromPool(PoolOf(lift(a), lift(b)), Config{BatchMax: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statuses := make(chan int, 2)
	post := func() {
		status, _, err := postBrief(ts.URL, "<p>x</p>")
		if err != nil {
			status = -1
		}
		statuses <- status
	}
	// The first request parks in replica a; the second must start on b while
	// a is still busy, not wait to share a's next batch.
	go post()
	<-a.started
	go post()
	<-b.started
	ms := srv.metrics
	if got := ms.BatchesTotal.Load(); got != 2 {
		t.Fatalf("batches_total=%d with two requests on two idle replicas, want 2", got)
	}
	close(a.release)
	close(b.release)
	for i := 0; i < 2; i++ {
		if s := <-statuses; s != http.StatusOK {
			t.Fatalf("request got %d", s)
		}
	}
	if ms.BatchSize.Snapshot().Sum != 2 || ms.CoalescedRequests.Load() != 0 {
		t.Fatalf("batch_size.sum=%d coalesced=%d, want 2/0 (two batches of one)",
			ms.BatchSize.Snapshot().Sum, ms.CoalescedRequests.Load())
	}
}

// TestQueueGauges splits the queue. With the only replica held and n
// requests queued behind it, queue_depth counts every admitted request,
// in_flight the one on the replica, and queue_waiting the n not yet checked
// out. A waiting request whose client gives up leaves queue_waiting without
// a checkout; the others leave it at theirs. Each leaves it exactly once, so
// after the drain all three gauges read 0.
func TestQueueGauges(t *testing.T) {
	const n = 3
	rep := newBlockingReplica()
	srv := NewFromPool(PoolOf(lift(rep)), Config{QueueDepth: 8, BatchMax: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	release := sync.OnceFunc(func() { close(rep.release) })
	defer release() // before ts.Close, so a failing test does not wait on held handlers
	// depth, waiting, in flight — as a scraper reads them.
	gauges := func() [3]int64 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var doc struct {
			QueueDepth   int64 `json:"queue_depth"`
			QueueWaiting int64 `json:"queue_waiting"`
			InFlight     int64 `json:"in_flight"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Errorf("/metrics: %v", err)
		}
		return [3]int64{doc.QueueDepth, doc.QueueWaiting, doc.InFlight}
	}
	statuses := make(chan int, n+1)
	post := func() {
		status, _, err := postBrief(ts.URL, "<p>x</p>")
		if err != nil {
			status = -1
		}
		statuses <- status
	}
	go post()
	<-rep.started // the first request holds the replica
	for range n {
		go post()
	}
	waitCond(t, "n requests waiting behind the held replica", func() bool { return gauges() == [3]int64{n + 1, n, 1} })

	// One more waits, then hangs up.
	hangUp, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(hangUp, http.MethodPost, ts.URL+"/brief", strings.NewReader("<p>gone</p>"))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	waitCond(t, "one more request to wait", func() bool { return gauges() == [3]int64{n + 2, n + 1, 1} })
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung-up request: %v, want its cancellation", err)
	}
	waitCond(t, "the hung-up request to leave the queue", func() bool { return gauges() == [3]int64{n + 1, n, 1} })

	release()
	for range n + 1 {
		if s := <-statuses; s != http.StatusOK {
			t.Fatalf("request got %d", s)
		}
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := srv.drain(ctx); err != nil {
		t.Fatal(err)
	}
	if g := gauges(); g != [3]int64{} {
		t.Fatalf("after the drain: queue_depth, queue_waiting, in_flight = %v, want all 0", g)
	}
}

// countingModel counts Eval forwards through a wrapped model tier. It hides
// the batched-forward capability, so the tier runs one Forward per member —
// which is what it counts.
type countingModel[T tensor.Float] struct {
	wb.ModelOf[T]
	forwards atomic.Int64
}

func (c *countingModel[T]) Forward(t *ag.TapeOf[T], inst *wb.Instance, mode wb.Mode) *wb.OutputOf[T] {
	c.forwards.Add(1)
	return c.ModelOf.Forward(t, inst, mode)
}

// TestOneForwardPerBriefing: through a real pool replica, one /brief costs
// exactly one forward on each tier that takes part in it — the teacher alone,
// the student alone, or the student then the teacher as its escalation
// target — and none on a tier that does not. The decode stage beam-searches
// from the encode stage's outputs instead of running the model again.
func TestOneForwardPerBriefing(t *testing.T) {
	m, v, pages := trainedModel(t)
	m.Cfg.BeamSize = 2
	for _, tc := range []struct {
		name                     string
		cascade                  bool
		bounds                   nn.Gaps
		wantStudent, wantTeacher int64 // forwards per briefing
	}{
		{"teacher-only", false, escalateNone, 0, 1},
		{"cascade-escalated", true, escalateAll, 1, 1},
		{"cascade-student-only", true, escalateNone, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withBounds(t, tc.bounds)
			srv, err := New(m, v, Config{Replicas: 1, Cascade: tc.cascade})
			if err != nil {
				t.Fatal(err)
			}
			teacher, student := &countingModel[float64]{}, &countingModel[float32]{}
			if err := srv.Pool().WrapOne(func(r Replica) Replica {
				for _, tr := range r.(*modelReplica).tiers {
					switch tr := tr.(type) {
					case *tierOf[float64]:
						teacher.ModelOf, tr.model = tr.model, teacher
					case *tierOf[float32]:
						student.ModelOf, tr.model = tr.model, student
					}
				}
				return r
			}); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			for i, p := range pages[:3] {
				beforeS, beforeT := student.forwards.Load(), teacher.forwards.Load()
				if status, _, err := postBrief(ts.URL, p.HTML); err != nil || status != http.StatusOK {
					t.Fatalf("page %d: status %d err %v", i, status, err)
				}
				gotS, gotT := student.forwards.Load()-beforeS, teacher.forwards.Load()-beforeT
				if gotS != tc.wantStudent || gotT != tc.wantTeacher {
					t.Fatalf("page %d: %d student / %d teacher forwards for one briefing, want %d / %d",
						i, gotS, gotT, tc.wantStudent, tc.wantTeacher)
				}
			}
			ms := srv.metrics
			if ms.BatchesTotal.Load() != 3 || ms.BatchSize.Snapshot().Sum != 3 {
				t.Fatalf("batches_total=%d batch_size.sum=%d, want 3/3 (an idle server answers each lone request as a batch of one)",
					ms.BatchesTotal.Load(), ms.BatchSize.Snapshot().Sum)
			}
		})
	}
}

// TestBatchedDeadlineWhileQueued: a request whose deadline expires while it
// waits for a replica is dropped — its client times out, nothing else —
// while the request queued beside it is served normally. An expiring member
// must never poison the batch it would have joined.
func TestBatchedDeadlineWhileQueued(t *testing.T) {
	rep := newBlockingReplica()
	srv := NewFromPool(PoolOf(lift(rep)), Config{QueueDepth: 8, BatchMax: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only replica: this lone request launches at once.
	holdDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/brief", strings.NewReader("<p>hold</p>"))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		holdDone <- err
	}()
	<-rep.started // the holder's batch has the replica and is parked in Encode

	// Now two requests queue for the next batch: one with a deadline that
	// expires before the replica frees up, one patient.
	doomedErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/brief", strings.NewReader("<p>doomed</p>"))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("doomed request got a response")
		}
		doomedErr <- err
	}()
	matepStatus := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>patient</p>")
		if err != nil {
			status = -1
		}
		matepStatus <- status
	}()

	// The doomed client must give up on its deadline.
	if err := <-doomedErr; err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("doomed request error = %v, want context deadline exceeded", err)
	}
	// Once the server has seen the disconnect (the expired member ends as a
	// canceled/timed-out request, keeping the outcome partition exact), free
	// the replica: the holder and the surviving request both brief.
	ms := srv.metrics
	waitCond(t, "server to observe the expired member", func() bool { return countOf(ms.Requests, Canceled)+countOf(ms.Requests, Timeout) == 1 })
	close(rep.release)
	if err := <-holdDone; err != nil {
		t.Fatalf("holding request: %v", err)
	}
	if status := <-matepStatus; status != http.StatusOK {
		t.Fatalf("batchmate of the expired request got %d, want 200", status)
	}

	if countOf(ms.Requests, OK) != 2 {
		t.Fatalf("ok=%d, want 2 (holder + surviving batchmate)", countOf(ms.Requests, OK))
	}
	if countOf(ms.Requests, ReplicaFailure) != 0 || countOf(ms.Requests, Unbriefable) != 0 {
		t.Fatalf("failures=%d unbriefable=%d: the expired member poisoned its batch",
			countOf(ms.Requests, ReplicaFailure), countOf(ms.Requests, Unbriefable))
	}
	if countOf(ms.Requests, Canceled)+countOf(ms.Requests, Timeout) != 1 {
		t.Fatalf("canceled=%d timeout=%d, want exactly one for the expired member",
			countOf(ms.Requests, Canceled), countOf(ms.Requests, Timeout))
	}
	if totalOf(ms.Requests) != countOf(ms.Requests, OK)+countOf(ms.Requests, Canceled)+countOf(ms.Requests, Timeout) {
		t.Fatalf("requests_total=%d does not partition into outcomes", totalOf(ms.Requests))
	}

	// And the server still drains cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedOverloadAndDraining: a full queue sheds 429 with Retry-After,
// requests arriving after shutdown are refused 503, and a request already
// queued when the drain begins is still dispatched and answered.
func TestBatchedOverloadAndDraining(t *testing.T) {
	rep := newBlockingReplica()
	srv := NewFromPool(PoolOf(lift(rep)), Config{QueueDepth: 1, BatchMax: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// First request: batch of one, checks out the replica, parks in Encode.
	first := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>a</p>")
		if err != nil {
			status = -1
		}
		first <- status
	}()
	<-rep.started
	// Second request: waits for the replica (queue depth 1).
	second := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>b</p>")
		if err != nil {
			status = -1
		}
		second <- status
	}()
	waitCond(t, "second request to queue", func() bool { return srv.metrics.Queued.Load() >= 2 })

	// Third request: queue full, shed.
	status, _, err := postBrief(ts.URL, "<p>c</p>")
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("over-admission request: status %d err %v, want 429", status, err)
	}

	srv.BeginShutdown()
	if status, _, err := postBrief(ts.URL, "<p>d</p>"); err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request: status %d err %v, want 503", status, err)
	}

	close(rep.release)
	if s := <-first; s != http.StatusOK {
		t.Fatalf("first request: %d, want 200", s)
	}
	if s := <-second; s != http.StatusOK {
		t.Fatalf("queued request: %d, want 200 (flushed by the drain)", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.drain(ctx); err != nil {
		t.Fatal(err)
	}
	ms := srv.metrics
	if countOf(ms.Requests, Overload) != 1 || countOf(ms.Requests, Draining) != 1 || countOf(ms.Requests, OK) != 2 {
		t.Fatalf("overload=%d draining=%d ok=%d, want 1/1/2",
			countOf(ms.Requests, Overload), countOf(ms.Requests, Draining), countOf(ms.Requests, OK))
	}
}
