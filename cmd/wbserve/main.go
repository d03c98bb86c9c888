// Command wbserve serves webpage briefings over HTTP — the deployment form
// §I motivates ("the functionality of WB may be added to web browsers") —
// on the concurrent serving subsystem of internal/serve: a pool of model
// replicas briefs requests in parallel, a bounded admission queue sheds
// overload with 429, and /metrics exposes counters and per-stage latency
// histograms.
//
// Every briefing reaches a replica through one batch scheduler. A request
// that finds a replica idle runs at once, alone — one forward pass per
// briefing, no added wait. When every replica is busy, whatever queues
// behind them coalesces (up to -batch-max) into one fused batched forward
// pass on the next replica to free up, so saturation widens matmuls instead
// of lengthening the queue. There is nothing to switch on; /metrics reports
// the batch sizes under "batching". A page is parsed once, before admission
// (no visible text is a 422 that never takes a queue slot), and one longer
// than wb.MaxPageTokens (2048) tokens is briefed on its head, as wbrief
// briefs it.
//
// Usage:
//
//	wbserve -model model.bin -addr :8080 -replicas 4 -queue 64 -timeout 30s
//	curl -s --data-binary @page.html http://localhost:8080/brief
//	curl -s http://localhost:8080/metrics
//
// Train a model bundle first with cmd/wbtrain. Topics decode at the beam
// width the bundle records (the model's BeamSize). Before listening, every
// replica briefs a synthetic page, so scratch workspaces are grown ahead of
// real traffic. SIGINT/SIGTERM drain gracefully, for at most -drain:
// /healthz flips to 503, in-flight briefings finish, then the listener
// closes.
//
// The HTTP/1.1 server is internal/httpwire, the same one wbgate runs, and
// httpwire.Run is the serving end of both mains. Its limits are fixed: a
// head over 64 KiB is a 431, a client that has not finished its head 5 s
// after its first byte is disconnected, an idle keep-alive connection is
// closed after 2 min, and a client that hangs up while its briefing waits
// in the queue is counted canceled. A raw-key cache hit never starts the
// disconnect watch. The access log records the request's X-Request-Id as
// "id" when it carries one (wbgate sends one on every attempt).
//
// -debug-addr (off by default) serves net/http/pprof's runtime profiles,
// /debug/pprof/, on a second httpwire server at that address:
//
//	go tool pprof 'http://localhost:6060/debug/pprof/profile?seconds=10'
//
// The server self-heals: a replica that panics or wedges past -stall is
// ejected from rotation (the request retries on another replica, up to
// -replica-retries), probed on -probe-interval, and readmitted after two
// consecutive clean probes — internal/breaker, the same machine wbgate runs
// per backend, with no cooldown. The -chaos flag wraps one pool replica in
// internal/fault's deterministic fault injector — a built-in resilience
// drill you can watch through /metrics:
//
//	wbserve -model model.bin -chaos 0.3 -chaosseed 7 -stall 500ms
//
// With -cascade set, every briefing first runs on a float32 student copy of
// the model, and only a briefing with a decision — a tag, a section flag, a
// first-pass token, a beam cut or the final ranking — whose float32 gap is
// within the student's measured rounding bound re-runs on the full float64
// teacher, so the wire carries the teacher's bytes whenever the guard passes.
// /metrics gains a cascade block with per-tier counters and latency
// histograms:
//
//	wbserve -model model.bin -cascade
//
// -confidence-threshold is still parsed and reported as
// cascade.confidence_threshold, but routes nothing.
//
// With -cache set, repeat briefings of the same page content are served
// from a content-addressed cache in microseconds — no replica checkout, no
// scheduler — and concurrent cold misses of one page coalesce into a single
// computation. -cache N holds N briefings, each with one raw-bytes alias,
// and evicts by SIEVE. A -cache-policy file controls per-domain admission
// and TTL, keyed by the optional ?src= query parameter:
//
//	wbserve -model model.bin -cache 4096 -cache-ttl 10m -cache-policy policy.conf
//
// The -model flag takes the snapshot bundle wbtrain writes, the one model
// file format; boot and reload read it through the same serving load
// (wb.LoadServing), which decodes it straight into the folded teacher.
//
// The model hot-reloads with zero downtime: SIGHUP (or POST /admin/reload)
// re-reads -model, builds and warms a shadow replica pool off-path, and
// atomically swaps it in — in-flight briefings finish on the old
// generation, new admissions brief on the new one, and the briefing cache
// starts a fresh namespace so no page replays the old model's answer. A
// bundle of another beam width serves at its own width from the swap on. The
// serving generation is visible in /metrics under "reload":
//
//	wbtrain ... -o model.bin        # write a new bundle in place
//	kill -HUP $(pidof wbserve)      # swap it in without dropping a request
package main

import (
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof" // the profiles -debug-addr serves
	"os"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/fault"
	"webbrief/internal/httpwire"
	"webbrief/internal/serve"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbserve: ")
	modelPath := flag.String("model", "model.bin", "model bundle from wbtrain")
	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.Int("replicas", 0, "model replicas serving concurrently (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "requests allowed to wait for a replica before 429 (-1 = none)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline, queue wait included (0 = none)")
	maxBody := flag.Int64("maxbody", httpwire.DefaultMaxBodyBytes, "request body limit in bytes (over-limit bodies get 413)")
	drainWait := flag.Duration("drain", 30*time.Second, "max time to drain in-flight briefings on shutdown")
	quiet := flag.Bool("quiet", false, "disable the JSON access log on stderr")
	replicaRetries := flag.Int("replica-retries", 1, "re-runs of a request whose replica panicked or stalled before 500 (-1 = none)")
	stall := flag.Duration("stall", 0, "per-stage watchdog: a stage exceeding this wedges and ejects its replica (0 = disabled)")
	probeEvery := flag.Duration("probe-interval", 25*time.Millisecond, "re-admission probe cadence for ejected replicas")
	chaos := flag.Float64("chaos", 0, "fault rate in [0,1] injected into ONE pool replica (0 = off) — a resilience drill")
	chaosSeed := flag.Int64("chaosseed", 1, "seed for the -chaos fault schedule")
	batchMax := flag.Int("batch-max", 8, "max queued requests coalesced into one batched forward when every replica is busy")
	cascade := flag.Bool("cascade", false, "float32 student fast path: brief on a float32 model copy and escalate to the float64 teacher every briefing with a decision float32 rounding could have flipped")
	confThreshold := flag.Float64("confidence-threshold", 0.5, "ignored: routes nothing, only reported as cascade.confidence_threshold (the cascade escalates on decision gaps)")
	cacheCap := flag.Int("cache", 0, "content-addressed briefing cache capacity in briefings, each with one raw-bytes alias; SIEVE evicts past it (0 = off)")
	cacheTTL := flag.Duration("cache-ttl", 0, "default cache entry lifetime (0 = entries never expire)")
	cachePolicyPath := flag.String("cache-policy", "", "per-domain admission/TTL policy file (deny/ttl/default lines; keyed by ?src=)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof's profiles on this address (empty = off)")
	flag.Parse()
	if *debugAddr != "" {
		at, err := httpwire.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		log.Printf("serving net/http/pprof on %s (/debug/pprof/)", at)
	}

	load := func() (*wb.FoldedOf[float64], *textproc.Vocab, error) {
		f, err := os.Open(*modelPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return wb.LoadServing(f)
	}
	start := time.Now()
	teacher, v, err := load()
	if err != nil {
		log.Fatalf("load %s: %v", *modelPath, err)
	}
	loaded := time.Since(start)

	var policy *briefcache.Policy
	if *cachePolicyPath != "" {
		if policy, err = briefcache.LoadPolicy(*cachePolicyPath); err != nil {
			log.Fatal(err)
		}
	}

	cfg := serve.Config{
		Replicas:            *replicas,
		QueueDepth:          *queue,
		Timeout:             *timeout,
		MaxBodyBytes:        *maxBody,
		ReplicaRetries:      *replicaRetries,
		StallTimeout:        *stall,
		ProbeInterval:       *probeEvery,
		BatchMax:            *batchMax,
		Cascade:             *cascade,
		ConfidenceThreshold: *confThreshold,
		CacheCapacity:       *cacheCap,
		CacheTTL:            *cacheTTL,
		CachePolicy:         policy,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	pool, err := serve.NewPool(teacher, v, cfg.Replicas, cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewFromPool(pool, cfg)
	log.Printf("loaded %s in %v: %s", *modelPath, loaded.Round(10*time.Microsecond), foldNote(srv))
	srv.SetReloadSource(load)

	start = time.Now()
	if err := srv.Warm(""); err != nil {
		log.Fatalf("warmup: %v", err)
	}
	log.Printf("warmed %d replica scratch workspaces in %v",
		srv.Pool().Size(), time.Since(start).Round(time.Millisecond))

	// Chaos drill: after warmup, one replica starts drawing faults from a
	// seeded schedule. Ejections, retries and readmissions show on /metrics.
	if *chaos > 0 {
		fcfg := fault.DefaultConfig(*chaosSeed)
		fcfg.Rate = *chaos
		sched := fault.NewSchedule(fcfg)
		err := srv.Pool().WrapOne(func(r serve.Replica) serve.Replica {
			return fault.NewReplica(r, sched)
		})
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		log.Printf("chaos drill armed: one replica faulted at rate %.2f, seed %d", *chaos, *chaosSeed)
	}

	reload := func() {
		start := time.Now()
		gen, err := srv.ReloadFromSource()
		if err != nil {
			log.Printf("reload: %v (old model keeps serving)", err)
			return
		}
		log.Printf("reloaded %s: generation %d live in %v, %s",
			*modelPath, gen, time.Since(start).Round(time.Millisecond), foldNote(srv))
	}
	banner := fmt.Sprintf("serving briefings on %s: %d replicas, queue %d, timeout %v (POST HTML to /brief; /healthz, /metrics)",
		*addr, srv.Pool().Size(), *queue, *timeout)
	if err := httpwire.Run(*addr, banner, srv, reload, *drainWait); err != nil {
		log.Fatal(err)
	}
}

// foldNote says what folding cost the live pool — the bytes all tiers'
// tables hold and the time its pool took to build over the loaded teacher —
// for the boot and reload log lines.
func foldNote(srv *serve.Server) string {
	f := srv.Pool().Fold()
	return fmt.Sprintf("folded %d bytes of embedding×gate tables, pool built in %v", f.Bytes, f.Built.Round(10*time.Microsecond))
}
