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
// than 2048 tokens is briefed on its first 2048.
//
// Usage:
//
//	wbserve -model model.bin -addr :8080 -replicas 4 -queue 64 -timeout 30s
//	curl -s --data-binary @page.html http://localhost:8080/brief
//	curl -s http://localhost:8080/metrics
//
// Train a model bundle first with cmd/wbtrain. SIGINT/SIGTERM drain
// gracefully: /healthz flips to 503, in-flight briefings finish, then the
// listener closes.
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
// the model; only decodes whose confidence score falls below
// -confidence-threshold re-run on the full float64 teacher. /metrics gains
// a cascade block with per-tier counters and latency histograms:
//
//	wbserve -model model.bin -cascade -confidence-threshold 0.5
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
// file format; boot and reload read it through the same loader.
//
// The model hot-reloads with zero downtime: SIGHUP (or POST /admin/reload)
// re-reads -model, builds and warms a shadow replica pool off-path, and
// atomically swaps it in — in-flight briefings finish on the old
// generation, new admissions brief on the new one, and the briefing cache
// starts a fresh namespace so no page replays the old model's answer. The
// serving generation is visible in /metrics under "reload". Disable the signal handler with
// -reload-signal=false (the admin endpoint still works):
//
//	wbtrain ... -o model.bin        # write a new bundle in place
//	kill -HUP $(pidof wbserve)      # swap it in without dropping a request
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/fault"
	"webbrief/internal/serve"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// Connection limits for clients that never finish (or never start) a
// request: without them a slow-header client pins a connection outside every
// counted /brief outcome. Bodies are bounded by -maxbody and -timeout.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbserve: ")
	modelPath := flag.String("model", "model.bin", "model bundle from wbtrain")
	addr := flag.String("addr", ":8080", "listen address")
	beam := flag.Int("beam", 8, "beam width for topic decoding")
	replicas := flag.Int("replicas", 0, "model replicas serving concurrently (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "requests allowed to wait for a replica before 429 (-1 = none)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline, queue wait included (0 = none)")
	maxBody := flag.Int64("maxbody", serve.DefaultMaxBodyBytes, "request body limit in bytes (over-limit bodies get 413)")
	drainWait := flag.Duration("drain", 30*time.Second, "max time to drain in-flight briefings on shutdown")
	warm := flag.Bool("warm", true, "brief a synthetic page on every replica before listening, so scratch workspaces are grown ahead of real traffic")
	quiet := flag.Bool("quiet", false, "disable the JSON access log on stderr")
	replicaRetries := flag.Int("replica-retries", 1, "re-runs of a request whose replica panicked or stalled before 500 (-1 = none)")
	stall := flag.Duration("stall", 0, "per-stage watchdog: a stage exceeding this wedges and ejects its replica (0 = disabled)")
	probeEvery := flag.Duration("probe-interval", 25*time.Millisecond, "re-admission probe cadence for ejected replicas")
	chaos := flag.Float64("chaos", 0, "fault rate in [0,1] injected into ONE pool replica (0 = off) — a resilience drill")
	chaosSeed := flag.Int64("chaosseed", 1, "seed for the -chaos fault schedule")
	batchMax := flag.Int("batch-max", 8, "max queued requests coalesced into one batched forward when every replica is busy")
	cascade := flag.Bool("cascade", false, "float32 student fast path: brief on a float32 model copy and escalate low-confidence decodes to the float64 teacher")
	confThreshold := flag.Float64("confidence-threshold", 0.5, "cascade escalation cutoff in [0,1]: student decodes whose confidence score falls below it re-run on the teacher")
	cacheCap := flag.Int("cache", 0, "content-addressed briefing cache capacity in briefings, each with one raw-bytes alias; SIEVE evicts past it (0 = off)")
	cacheTTL := flag.Duration("cache-ttl", 0, "default cache entry lifetime (0 = entries never expire)")
	cachePolicyPath := flag.String("cache-policy", "", "per-domain admission/TTL policy file (deny/ttl/default lines; keyed by ?src=)")
	reloadSignal := flag.Bool("reload-signal", true, "hot-reload the -model bundle on SIGHUP (zero downtime; POST /admin/reload always works)")
	flag.Parse()

	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatalf("open model: %v (train one with wbtrain)", err)
	}
	m, v, err := wb.LoadModelAuto(f)
	f.Close()
	if err != nil {
		log.Fatalf("load %s: %v", *modelPath, err)
	}

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
		BeamWidth:           *beam,
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
	srv, err := serve.New(m, v, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %s: %s", *modelPath, foldNote(srv))
	srv.SetReloadSource(func() (*wb.JointWB, *textproc.Vocab, error) {
		f, err := os.Open(*modelPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return wb.LoadModelAuto(f)
	})

	if *warm {
		start := time.Now()
		if err := srv.Warm(""); err != nil {
			log.Fatalf("warmup: %v", err)
		}
		log.Printf("warmed %d replica scratch workspaces in %v",
			srv.Pool().Size(), time.Since(start).Round(time.Millisecond))
	}

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

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *reloadSignal {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		//wbcheck:ignore goshutdown -- reload listener lives for the whole process; it exits with it
		go func() {
			for range hup {
				start := time.Now()
				gen, err := srv.ReloadFromSource()
				if err != nil {
					log.Printf("reload: %v (old model keeps serving)", err)
					continue
				}
				log.Printf("reloaded %s: generation %d live in %v, %s",
					*modelPath, gen, time.Since(start).Round(time.Millisecond), foldNote(srv))
			}
		}()
	}

	errc := make(chan error, 1)
	//wbcheck:ignore goshutdown -- accept loop lives for the whole process; ListenAndServe returns when Shutdown below closes the listener, and the buffered errc send never leaks it
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving briefings on %s: %d replicas, queue %d, timeout %v (POST HTML to /brief; /healthz, /metrics)",
		*addr, srv.Pool().Size(), *queue, *timeout)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("draining (max %v)...", *drainWait)
	srv.BeginShutdown() // /healthz now 503; new briefings refused
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("drained, bye")
}

// foldNote says what folding cost the live pool — the bytes all tiers'
// tables hold and the time its serving models took to build — for the boot
// and reload log lines.
func foldNote(srv *serve.Server) string {
	f := srv.Pool().Fold()
	if f.Bytes == 0 {
		return "serving unfolded (no fold tables for this model)"
	}
	return fmt.Sprintf("folded %d bytes of embedding×gate tables, serving models built in %v", f.Bytes, f.Built.Round(10*time.Microsecond))
}
