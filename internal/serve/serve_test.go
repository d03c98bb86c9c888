package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// trainedModel trains a tiny Joint-WB (2 domains, 2 quick epochs) and
// returns it with its vocabulary and the pages it can brief.
func trainedModel(t testing.TB) (*wb.JointWB, *textproc.Vocab, []*corpus.Page) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 4, SeenDomains: 2, UnseenDomains: 0})
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	insts := wb.NewInstances(ds.Pages, v, 0)
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(51))))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = 51
	m := wb.NewJointWB("serve-test", enc, v.Size(), cfg)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 2
	wb.TrainModel(m, insts, tc)
	return m, v, ds.Pages
}

// postBrief POSTs html to the server and returns status, body. It returns
// errors rather than failing the test so it is safe from spawned client
// goroutines (t.Fatal must only run on the test goroutine).
func postBrief(url, html string) (int, []byte, error) {
	resp, err := http.Post(url+"/brief", "text/html", strings.NewReader(html))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// TestServeEndToEnd runs concurrent clients against a pool-backed server
// over a real trained model and asserts every briefing is byte-identical
// on the wire to the serial wb.Briefer path — same JSON bytes from pooled
// encode buffers and warm per-replica scratch workspaces as from a cold
// heap path. Run under -race, this is the proof that replicas do not
// serialise on (or corrupt) shared state.
func TestServeEndToEnd(t *testing.T) {
	m, v, pages := trainedModel(t)
	const beam = 2
	m.Cfg.BeamSize = beam

	// Serial reference briefings, via the single-mutex path. The handler
	// responds with Encoder.Encode framing, i.e. the JSON plus a trailing
	// newline, so the expected wire bytes carry one too.
	want := serialWire(t, wb.NewBriefer(m, v, beam, 0), pageHTML(pages))

	// Cold-vs-warm: a single-replica server answers the same page three
	// times on one scratch workspace. The first response is computed on a
	// cold scratch, the rest on warm reused buffers; all must be identical
	// bytes, or scratch state is leaking between requests.
	func() {
		one, err := New(m, v, Config{Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(one)
		defer ts.Close()
		for i, p := range pages {
			for rep := 0; rep < 3; rep++ {
				status, body, err := postBrief(ts.URL, p.HTML)
				if err != nil || status != http.StatusOK {
					t.Fatalf("page %d repeat %d: status %d err %v", i, rep, status, err)
				}
				if !bytes.Equal(body, want[i]) {
					t.Fatalf("page %d repeat %d: warm replica response diverges from serial path:\n got %s\nwant %s",
						i, rep, body, want[i])
				}
			}
		}
	}()

	var accessLog bytes.Buffer
	srv, err := New(m, v, Config{Replicas: 3, QueueDepth: 64, AccessLog: &accessLog})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Boot-time warmup (what wbserve runs before listening) must not perturb outputs:
	// every post-warmup briefing below still has to match the serial bytes.
	if err := srv.Pool().Warm(pages[0].HTML); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// 4 concurrent clients × all pages, interleaved across replicas.
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan string, clients*len(pages))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range pages {
				status, body, err := postBrief(ts.URL, p.HTML)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if status != http.StatusOK {
					errs <- "bad status"
					continue
				}
				if !bytes.Equal(body, want[i]) {
					errs <- "pooled briefing diverges byte-wise from serial path"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Metrics reconcile with what the clients observed.
	ms := srv.metrics
	if got, want := countOf(ms.Requests, OK), int64(clients*len(pages)); got != want {
		t.Fatalf("metrics ok=%d, want %d", got, want)
	}
	if got := totalOf(ms.Requests); got != countOf(ms.Requests, OK) {
		t.Fatalf("requests_total=%d != ok=%d with no failures", got, countOf(ms.Requests, OK))
	}
	for _, name := range []string{"parse", "encode", "decode", "total"} {
		if n := stageOf(ms, name).Count; n != countOf(ms.Requests, OK) {
			t.Fatalf("%s histogram count=%d, want %d", name, n, countOf(ms.Requests, OK))
		}
	}

	// Every access-log line is valid JSON with the expected fields.
	lines := bytes.Split(bytes.TrimSpace(accessLog.Bytes()), []byte("\n"))
	if len(lines) != clients*len(pages) {
		t.Fatalf("access log has %d lines, want %d", len(lines), clients*len(pages))
	}
	var entry accessEntry
	if err := json.Unmarshal(lines[0], &entry); err != nil {
		t.Fatalf("access log line not JSON: %v", err)
	}
	if entry.Status != http.StatusOK || entry.Path != "/brief" {
		t.Fatalf("access entry %+v", entry)
	}
}

// TestServeHTTPErrors covers the non-200 paths of the full HTTP surface:
// 405, 413 (no silent truncation), 422, and the /metrics accounting of
// each.
func TestServeHTTPErrors(t *testing.T) {
	m, v, _ := trainedModel(t)
	m.Cfg.BeamSize = 2
	srv, err := New(m, v, Config{Replicas: 1, MaxBodyBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 405: wrong method.
	resp, err := http.Get(ts.URL + "/brief")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}

	// 413: body over the configured limit must be rejected, not briefed
	// from a truncated prefix.
	status, _, err := postBrief(ts.URL, "<p>hello</p>"+strings.Repeat("x", 2<<10))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status %d, want 413", status)
	}

	// A body exactly at the limit is still served.
	atLimit := "<p>title : novel edition</p>"
	atLimit += strings.Repeat(" ", 1<<10-len(atLimit))
	if status, _, err := postBrief(ts.URL, atLimit); err != nil || status != http.StatusOK {
		t.Fatalf("at-limit status %d err %v, want 200", status, err)
	}

	// 422: no visible text.
	status, _, err = postBrief(ts.URL, "<script>only()</script>")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unbriefable status %d, want 422", status)
	}

	ms := srv.metrics
	if countOf(ms.Requests, BadMethod) != 1 || countOf(ms.Requests, TooLarge) != 1 || countOf(ms.Requests, Unbriefable) != 1 {
		t.Fatalf("error counters: method=%d large=%d unbriefable=%d",
			countOf(ms.Requests, BadMethod), countOf(ms.Requests, TooLarge), countOf(ms.Requests, Unbriefable))
	}
	if totalOf(ms.Requests) != 4 {
		t.Fatalf("requests_total=%d, want 4", totalOf(ms.Requests))
	}

	// /metrics serves the same numbers as JSON.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.RequestsTotal != 4 || snap.Responses.Get(TooLarge) != 1 {
		t.Fatalf("metrics snapshot %+v", snap)
	}
	if snap.Pool.Replicas != 1 || snap.Pool.Idle != 1 {
		t.Fatalf("pool stats %+v", snap.Pool)
	}
}

// stubReplica is a Replica whose Encode blocks until released — the seam
// for deterministic overload, timeout and drain tests.
type stubReplica struct {
	started chan struct{} // receives when Encode begins
	release chan struct{} // Encode returns after a receive
}

func newStubReplica() *stubReplica {
	return &stubReplica{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (r *stubReplica) Encode(inst *wb.Instance) *wb.Brief {
	r.started <- struct{}{}
	<-r.release
	return &wb.Brief{}
}

func (r *stubReplica) Decode(inst *wb.Instance, b *wb.Brief) {}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionOverload429 fills the single replica and the whole wait
// queue, then asserts the next request is shed with 429 + Retry-After
// while every admitted request still completes.
func TestAdmissionOverload429(t *testing.T) {
	stub := newStubReplica()
	srv := NewFromPool(PoolOf(lift(stub)), Config{QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	results := make(chan int, 3)
	post := func() {
		status, _, err := postBrief(ts.URL, "<p>x</p>")
		if err != nil {
			status = -1
		}
		results <- status
	}

	// One request occupies the replica...
	go post()
	<-stub.started
	// ...two more fill the wait queue (Queued counts every admitted,
	// unanswered request, the briefing one included).
	go post()
	go post()
	waitCond(t, "queue to fill", func() bool { return srv.metrics.Queued.Load() == 3 })

	// The next request must be rejected immediately with 429.
	resp, err := http.Post(ts.URL+"/brief", "text/html", strings.NewReader("<p>x</p>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfter {
		t.Fatalf("Retry-After %q, want %q", ra, retryAfter)
	}

	// Releasing the stub lets all three admitted requests finish.
	for i := 0; i < 3; i++ {
		stub.release <- struct{}{}
		if i < 2 {
			<-stub.started
		}
	}
	for i := 0; i < 3; i++ {
		if status := <-results; status != http.StatusOK {
			t.Fatalf("admitted request got %d", status)
		}
	}
	ms := srv.metrics
	if countOf(ms.Requests, OK) != 3 || countOf(ms.Requests, Overload) != 1 || totalOf(ms.Requests) != 4 {
		t.Fatalf("counters ok=%d overload=%d total=%d", countOf(ms.Requests, OK), countOf(ms.Requests, Overload), totalOf(ms.Requests))
	}
}

// TestQueueDeadline504 parks a request in the wait queue past the
// configured per-request deadline and asserts it gets 504. The request
// holding the replica gets its 504 at its own deadline too, from its
// handler, while Encode still holds the replica; when the stage finally
// returns, the post-decode deadline check discards the briefing the client
// has already given up on instead of counting it served.
func TestQueueDeadline504(t *testing.T) {
	stub := newStubReplica()
	srv := NewFromPool(PoolOf(lift(stub)), Config{QueueDepth: 2, Timeout: 25 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>x</p>")
		if err != nil {
			status = -1
		}
		first <- status
	}()
	<-stub.started

	// This one can only wait; the deadline expires in the queue.
	status, _, err := postBrief(ts.URL, "<p>x</p>")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status %d, want 504", status)
	}

	// Each deadline is its own timer, and nothing orders the first request's
	// expiry before the second's answer: wait for the first's 504 before
	// letting its Encode return, or the stage could finish inside that gap
	// and be served.
	if s := <-first; s != http.StatusGatewayTimeout {
		t.Fatalf("first request got %d, want 504 after its deadline", s)
	}
	if countOf(srv.metrics.Requests, Timeout) != 2 {
		t.Fatalf("timeout counter %d, want 2", countOf(srv.metrics.Requests, Timeout))
	}
	stub.release <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := srv.Pool().Get(ctx) // blocks until the executor is done with the replica
	if err != nil {
		t.Fatalf("replica never returned to the pool: %v", err)
	}
	srv.Pool().Put(rep)
	if ok := countOf(srv.metrics.Requests, OK); ok != 0 {
		t.Fatalf("%d briefings counted served after both deadlines expired", ok)
	}
}

// TestHealthzAndDrain exercises the lifecycle: healthz reflects pool
// readiness, BeginShutdown refuses new work with 503 while in-flight
// briefings finish, and Drain returns once the server is idle.
func TestHealthzAndDrain(t *testing.T) {
	stub := newStubReplica()
	srv := NewFromPool(PoolOf(lift(stub)), Config{QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	getHealth := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	code, h := getHealth()
	if code != http.StatusOK || h["status"] != "ok" || h["idle"] != float64(1) {
		t.Fatalf("healthz %d %+v", code, h)
	}

	// Occupy the replica, then begin shutdown.
	inflight := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>x</p>")
		if err != nil {
			status = -1
		}
		inflight <- status
	}()
	<-stub.started
	srv.BeginShutdown()

	code, h = getHealth()
	if code != http.StatusServiceUnavailable || h["status"] != "draining" {
		t.Fatalf("draining healthz %d %+v", code, h)
	}
	if status, _, err := postBrief(ts.URL, "<p>x</p>"); err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown brief status %d (err %v), want 503", status, err)
	}

	// Drain blocks until the in-flight briefing completes, then reports a
	// clean drain.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.drain(ctx)
	}()
	stub.release <- struct{}{}
	if s := <-inflight; s != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain", s)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// TestPoolGetContext covers Pool.Get's context path directly.
func TestPoolGetContext(t *testing.T) {
	p := PoolOf(lift(newStubReplica()))
	r, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Get(ctx); err == nil {
		t.Fatal("Get on an empty pool must fail once ctx expires")
	}
	p.Put(r)
	if got, err := p.Get(context.Background()); err != nil || got == nil {
		t.Fatalf("Get after Put: %v", err)
	}
}
