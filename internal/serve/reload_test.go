package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// genReplica briefs successfully with a body that names its model
// generation twice: Encode stamps the first copy, Decode the second. A
// response whose two stamps disagree — or that matches no known
// generation's bytes — would prove a briefing tore across a hot reload.
// The small decode sleep keeps briefings in flight long enough for swaps
// to land mid-request.
type genReplica struct {
	gen   string
	delay time.Duration
}

func (r *genReplica) Encode(inst *wb.Instance) *wb.Brief {
	return &wb.Brief{Topic: []string{r.gen}}
}
func (r *genReplica) Decode(inst *wb.Instance, b *wb.Brief) {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	b.Topic = append(b.Topic, r.gen)
}

// genBytes is the exact wire body a generation's briefing produces: the
// brief JSON plus the json.Encoder trailing newline.
func genBytes(t *testing.T, gen string) []byte {
	t.Helper()
	j, err := json.Marshal(&wb.Brief{Topic: []string{gen, gen}})
	if err != nil {
		t.Fatal(err)
	}
	return append(j, '\n')
}

func genPool(gen string, delay time.Duration, n int) *Pool {
	reps := make([]Replica, n)
	for i := range reps {
		reps[i] = lift(&genReplica{gen: gen, delay: delay})
	}
	return PoolOf(reps...)
}

// runReloadEquivalence drives srv with concurrent clients while the main
// goroutine swaps through the given generations, then checks the torn-read
// contract: every single response is a 200 whose body is byte-identical to
// exactly one generation's output — never a mix, never an error, never a
// drop — no client ever sees an older generation after a newer one, and the
// generation counter ends at 1+len(swaps). Clients cycle through a small
// page set, so with the briefing cache on most requests are hits and every
// swap must start them missing again: a page cached under an old generation
// may never answer for a newer one.
func runReloadEquivalence(t *testing.T, srv *Server, url string, clients int, swapGens []string, delay time.Duration) {
	t.Helper()
	gens := append([]string{"g1"}, swapGens...)
	wants := make([][]byte, len(gens))
	for i, g := range gens {
		wants[i] = genBytes(t, g)
	}
	genOf := func(body []byte) int {
		for i, want := range wants {
			if bytes.Equal(body, want) {
				return i
			}
		}
		return -1
	}
	const loadPages = 4
	loadPage := func(i int) string { return fmt.Sprintf("<html><body>reload load %d</body></html>", i%loadPages) }

	perClient := 320 / clients
	var (
		wg     sync.WaitGroup
		served atomic.Int64
	)
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			newest := 0
			for i := 0; i < perClient; i++ {
				status, body, err := postBrief(url, loadPage(i))
				if err != nil || status != http.StatusOK {
					errCh <- fmt.Errorf("status %d err %v", status, err)
					continue
				}
				switch g := genOf(body); {
				case g < 0:
					errCh <- fmt.Errorf("torn or unknown response body: %q", body)
				case g < newest:
					errCh <- fmt.Errorf("stale response: generation %s after %s", gens[g], gens[newest])
				default:
					newest = g
				}
				served.Add(1)
			}
		}()
	}

	// Swap generations mid-load: wait for some traffic to land on the
	// current generation, then swap to the next. waitCond bounds each wait.
	prevServed := int64(0)
	for _, g := range swapGens {
		target := prevServed + int64(clients) // at least one response per swap window
		waitCond(t, "load to progress before swap", func() bool { return served.Load() >= target })
		if _, err := srv.swapPool(genPool(g, delay, srv.Pool().Size())); err != nil {
			t.Fatalf("SwapPool(%s): %v", g, err)
		}
		prevServed = served.Load()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("client: %v", err)
	}

	total := served.Load()
	if want := int64(clients * perClient); total != want {
		t.Fatalf("served %d of %d requests — dropped across reload", total, want)
	}
	// The last swapped generation must be live: after quiesce a fresh page
	// and every load page (cached under earlier generations when the cache
	// is on) brief on it deterministically.
	last := wants[len(wants)-1]
	probes := []string{"<html><body>post-swap</body></html>"}
	for i := 0; i < loadPages; i++ {
		probes = append(probes, loadPage(i))
	}
	for _, page := range probes {
		status, body, err := postBrief(url, page)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-swap brief: status %d err %v", status, err)
		}
		if !bytes.Equal(body, last) {
			t.Fatalf("post-swap response for %q not on generation %s:\n got %q\nwant %q",
				page, gens[len(gens)-1], body, last)
		}
	}

	if got, want := srv.generation.Load(), int64(len(gens)); got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	if got, want := srv.reloads.Load(), int64(len(swapGens)); got != want {
		t.Fatalf("reloads = %d, want %d", got, want)
	}
	// Zero dropped requests, exactly: OK must account for every client
	// success including the post-swap probes.
	ms := srv.metrics
	all := total + int64(len(probes))
	if got := countOf(ms.Requests, OK); got != all {
		t.Fatalf("metrics OK = %d, client successes = %d", got, all)
	}
	if srv.cache != nil {
		hits, misses, coalesced := countOf(ms.CacheLookups, CacheHits), countOf(ms.CacheLookups, CacheMisses), countOf(ms.CacheLookups, CacheCoalesced)
		if totalOf(ms.CacheLookups) != all || hits+misses+coalesced != all {
			t.Fatalf("cache partition drifted across reload: lookups=%d hits=%d misses=%d coalesced=%d, want %d",
				totalOf(ms.CacheLookups), hits, misses, coalesced, all)
		}
		if hits == 0 || misses < int64(len(gens)) {
			t.Fatalf("hits=%d misses=%d: want repeat pages to hit within a generation and every generation to miss afresh", hits, misses)
		}
	}
}

// TestHotReloadEquivalence swaps three model generations under load and
// asserts no response is ever torn across a generation, stale or dropped —
// for one client (every batch a batch of one) and for eight (batches
// coalesce; each snapshots the pool once, so its members all brief on a
// single generation even when the swap lands mid-formation), with the
// briefing cache off and on.
func TestHotReloadEquivalence(t *testing.T) {
	for _, clients := range []int{1, 8} {
		for _, cacheCap := range []int{0, 64} {
			t.Run(fmt.Sprintf("clients=%d/cache=%d", clients, cacheCap), func(t *testing.T) {
				const delay = 200 * time.Microsecond
				srv := NewFromPool(genPool("g1", delay, 2), Config{QueueDepth: 64, BatchMax: 4, CacheCapacity: cacheCap})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				runReloadEquivalence(t, srv, ts.URL, clients, []string{"g2", "g3", "g4"}, delay)
				srv.BeginShutdown()
			})
		}
	}
	// The same contract over real models whose weights differ between
	// generations: every generation serves from fold tables built from its
	// own weights, so a table that survived a reload would answer with bytes
	// that are neither generation's unfolded reference.
	for _, tier := range []string{"teacher", "student"} {
		t.Run("real-model/"+tier, func(t *testing.T) { runRealReloadEquivalence(t, tier == "student") })
	}
}

// unfoldedWire returns the wire bytes of every page as briefed WITHOUT fold
// tables: by the serial wb.Briefer on the teacher, or — for a cascade that
// never escalates — by the plain float32 conversion of m.
func unfoldedWire(t *testing.T, m *wb.JointWB, v *textproc.Vocab, pages []string, beam int, student bool) [][]byte {
	t.Helper()
	if !student {
		return serialWire(t, wb.NewBriefer(m, v, beam, 0), pages)
	}
	st, err := wb.ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	scratch := wb.NewBatchScratchOf[float32](v, beam, 1)
	want := make([][]byte, len(pages))
	for i, html := range pages {
		b, _ := wb.MakeBriefBatch(st, []*wb.Instance{wb.InstanceFromHTML(html, v, 0)}, v, beam, scratch)
		j, err := json.Marshal(b[0])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(j, '\n')
	}
	return want
}

// runRealReloadEquivalence serves model generation 1 to four clients cycling
// over the corpus pages, hot-reloads a differently seeded model mid-load, and
// requires of every response that it be a 200 carrying exactly one
// generation's unfolded reference bytes for its page, never the older
// generation's after the newer's — and, once the reload has returned, the
// newer's for every page.
func runRealReloadEquivalence(t *testing.T, student bool) {
	m1, v, pages := trainedModelSeed(t, 51)
	m2, v2, _ := trainedModelSeed(t, 52)
	const beam = 2
	htmls := pageHTML(pages)
	wants := [][][]byte{
		unfoldedWire(t, m1, v, htmls, beam, student),
		unfoldedWire(t, m2, v2, htmls, beam, student),
	}
	differ := 0
	for i := range htmls {
		if !bytes.Equal(wants[0][i], wants[1][i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("fixture too weak: both generations brief every page identically")
	}
	// Threshold -1 never escalates: every answer is the student tier's.
	srv, err := New(m1, v, Config{Replicas: 2, BeamWidth: beam, QueueDepth: 64, BatchMax: 4, Cascade: student, ConfidenceThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Clients run until the reload has returned and then a little longer, so
	// both generations answer under load whatever the reload takes.
	const clients, afterReload = 4, 24
	var (
		wg           sync.WaitGroup
		reloaded     atomic.Bool
		served       atomic.Int64
		only1, only2 atomic.Int64 // answers only one generation could have given
	)
	errCh := make(chan error, 1024)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			newest := 0
			for i, tail := 0, 0; tail < afterReload && len(errCh) < cap(errCh)/2; i++ {
				if reloaded.Load() {
					tail++
				}
				page := (c + i) % len(htmls)
				status, body, err := postBrief(ts.URL, htmls[page])
				served.Add(1)
				if err != nil || status != http.StatusOK {
					errCh <- fmt.Errorf("status %d err %v", status, err)
					continue
				}
				is1, is2 := bytes.Equal(body, wants[0][page]), bytes.Equal(body, wants[1][page])
				switch {
				case !is1 && !is2:
					errCh <- fmt.Errorf("page %d: response is neither generation's unfolded reference: %s", page, body)
				case is2 && !is1:
					newest = 1
					only2.Add(1)
				case is1 && !is2:
					only1.Add(1)
					if newest == 1 {
						errCh <- fmt.Errorf("page %d: generation 1 answer after a generation 2 answer", page)
					}
				}
			}
		}(c)
	}
	waitCond(t, "load to reach the first generation", func() bool { return served.Load() >= clients })
	if gen, err := srv.Reload(m2, v2); err != nil || gen != 2 {
		t.Fatalf("Reload: generation %d, err %v", gen, err)
	}
	reloaded.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("client: %v", err)
	}
	if only1.Load() == 0 || only2.Load() == 0 {
		t.Fatalf("load saw %d generation-1-only and %d generation-2-only answers, want both", only1.Load(), only2.Load())
	}
	for i, html := range htmls {
		status, body, err := postBrief(ts.URL, html)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-reload page %d: status %d err %v", i, status, err)
		}
		if !bytes.Equal(body, wants[1][i]) {
			t.Fatalf("post-reload page %d is not the new model's unfolded briefing:\n got %s\nwant %s", i, body, wants[1][i])
		}
	}
	srv.BeginShutdown()
}

// TestSwapPoolRejectsBadPools pins the two swap preconditions: capacity
// must not change across a reload, and the incoming pool must be fully
// idle (nothing may already hold one of its replicas).
func TestSwapPoolRejectsBadPools(t *testing.T) {
	srv := NewFromPool(genPool("g1", 0, 2), Config{})
	if _, err := srv.swapPool(genPool("g2", 0, 3)); err == nil {
		t.Fatal("SwapPool accepted a pool of a different size")
	}
	busy := genPool("g2", 0, 2)
	if _, ok := busy.TryGet(); !ok {
		t.Fatal("TryGet on fresh pool failed")
	}
	if _, err := srv.swapPool(busy); err == nil {
		t.Fatal("SwapPool accepted a non-idle pool")
	}
	if got := srv.generation.Load(); got != 1 {
		t.Fatalf("failed swaps must not bump generation: got %d", got)
	}
}

// trainedModelSeed is trainedModel with a controllable model seed, so a
// reload test can build a second, genuinely different bundle over the same
// corpus and vocabulary.
func trainedModelSeed(t testing.TB, seed int64) (*wb.JointWB, *textproc.Vocab, []*corpus.Page) {
	t.Helper()
	return trainedModelOn(t, corpus.Config{Seed: 1, PagesPerDomain: 4, SeenDomains: 2, UnseenDomains: 0}, seed)
}

// trainedModelOn is trainedModelSeed over a corpus of the caller's choosing,
// and so a vocabulary of its own.
func trainedModelOn(t testing.TB, cc corpus.Config, seed int64) (*wb.JointWB, *textproc.Vocab, []*corpus.Page) {
	t.Helper()
	ds, err := corpus.Generate(cc)
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	insts := wb.NewInstances(ds.Pages, v, 0)
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 16, 0.1, rand.New(rand.NewSource(seed))))
	cfg := wb.DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = seed
	m := wb.NewJointWB("serve-test", enc, v.Size(), cfg)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = 2
	wb.TrainModel(m, insts, tc)
	return m, v, ds.Pages
}

// TestReloadRealModel reloads a real trained bundle end to end — build,
// warm, swap — and asserts post-reload responses are byte-identical to the
// new model's serial reference briefings, with the reload generation
// visible at /metrics and via /admin/reload.
func TestReloadRealModel(t *testing.T) {
	m1, v1, pages := trainedModelSeed(t, 51)
	m2, v2, _ := trainedModelSeed(t, 52)
	const beam = 2

	srv, err := New(m1, v1, Config{Replicas: 2, BeamWidth: beam})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wireBrief := func(m *wb.JointWB, v *textproc.Vocab, html string) []byte {
		serial := wb.NewBriefer(m, v, beam, 0)
		b, err := serial.BriefHTML(html)
		if err != nil {
			t.Fatalf("serial brief: %v", err)
		}
		j, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return append(j, '\n')
	}

	// Pre-reload sanity: generation 1 serves the old model.
	status, body, err := postBrief(ts.URL, pages[0].HTML)
	if err != nil || status != http.StatusOK {
		t.Fatalf("pre-reload brief: status %d err %v", status, err)
	}
	if !bytes.Equal(body, wireBrief(m1, v1, pages[0].HTML)) {
		t.Fatal("pre-reload response diverges from old model's serial path")
	}

	gen, err := srv.Reload(m2, v2)
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if gen != 2 {
		t.Fatalf("Reload returned generation %d, want 2", gen)
	}

	// Every page must now brief byte-identically to the new model's serial
	// path — the swapped pool is complete and warm, not a partial fleet.
	for i, p := range pages {
		status, body, err := postBrief(ts.URL, p.HTML)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-reload brief %d: status %d err %v", i, status, err)
		}
		if !bytes.Equal(body, wireBrief(m2, v2, p.HTML)) {
			t.Fatalf("post-reload page %d diverges from new model's serial path", i)
		}
	}

	// /metrics reports the new generation.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Reload struct {
			Generation   int64 `json:"generation"`
			ReloadsTotal int64 `json:"reloads_total"`
		} `json:"reload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Reload.Generation != 2 || snap.Reload.ReloadsTotal != 1 {
		t.Fatalf("metrics reload block = %+v, want generation 2 / reloads 1", snap.Reload)
	}
}

// TestAdminReloadEndpoint pins the admin surface: 405 for non-POSTs, 409
// with no reload source, 200 + generation JSON once a source is set, and
// 500 (live pool untouched) when the source fails.
func TestAdminReloadEndpoint(t *testing.T) {
	m, v, pages := trainedModelSeed(t, 51)
	srv, err := New(m, v, Config{Replicas: 1, BeamWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get, err := http.Get(ts.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d, want 405", get.StatusCode)
	}

	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, _ := post(); code != http.StatusConflict {
		t.Fatalf("reload with no source = %d, want 409", code)
	}

	srv.SetReloadSource(func() (*wb.JointWB, *textproc.Vocab, error) {
		return nil, nil, fmt.Errorf("bundle read failed")
	})
	if code, _ := post(); code != http.StatusInternalServerError {
		t.Fatal("failing source must 500")
	}
	if srv.generation.Load() != 1 {
		t.Fatalf("failed reload bumped generation to %d", srv.generation.Load())
	}
	// Live pool still serves after the failed reload.
	if status, _, err := postBrief(ts.URL, pages[0].HTML); err != nil || status != http.StatusOK {
		t.Fatalf("brief after failed reload: status %d err %v", status, err)
	}

	srv.SetReloadSource(func() (*wb.JointWB, *textproc.Vocab, error) { return m, v, nil })
	code, body := post()
	if code != http.StatusOK {
		t.Fatalf("reload = %d body %q, want 200", code, body)
	}
	var out struct {
		Generation int64 `json:"generation"`
		Replicas   int   `json:"replicas"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("reload response %q: %v", body, err)
	}
	if out.Generation != 2 || out.Replicas != 1 {
		t.Fatalf("reload response = %+v, want generation 2 / replicas 1", out)
	}
}
