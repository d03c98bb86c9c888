// Command wbgate is the sharded front tier of the briefing service: an
// HTTP gateway that consistent-hash routes briefing requests by page
// domain across a fleet of wbserve backends (internal/gateway), so one
// domain's pages concentrate on one backend's content-addressed cache and
// per-domain policy.
//
// Usage:
//
//	wbserve -model model.bin -addr :8081 &
//	wbserve -model model.bin -addr :8082 &
//	wbgate -backends localhost:8081,localhost:8082 -addr :8080
//	curl -s --data-binary @page.html 'http://localhost:8080/brief?src=https://example.com/page'
//	curl -s http://localhost:8080/metrics
//
// Each backend gets a bounded set of keep-alive connections the gateway
// owns itself (one synchronous exchange per relay attempt, no net/http
// client: a connection is kept only if its reply was read to the end
// uninterrupted, and a kept one the backend has since closed costs a redial
// and a replay, not a failed attempt), a circuit breaker — internal/breaker,
// the same machine wbserve runs per replica (-breaker-threshold consecutive
// failures eject it; once -breaker-cooldown has passed, /healthz probes on
// -probe-interval readmit it after two clean in a row) — and failover: a
// request whose home backend is ejected, saturated, or failing is retried on
// the next candidates around the ring, so single-backend faults stay
// invisible to clients.
//
// POST /admin/reload (or SIGHUP) drives a rolling zero-downtime hot model
// reload across the fleet — each backend's /admin/reload in turn, one at a
// time, so at most one backend is warming a shadow pool while the rest
// serve. /metrics reports per-backend requests, errors, breaker state,
// model generation and connection reuse; /healthz aggregates fleet health. SIGINT/SIGTERM drain
// gracefully.
//
// Every /brief response carries X-Request-Id: the client's, if it sent 1–64
// bytes with no space or control byte, else one minted here (a random
// per-process prefix and a counter, 16 hex digits). Every relay attempt to a
// backend carries it too, so the backends' access logs join on it. The
// inbound HTTP/1.1 server is internal/httpwire, the same one wbserve runs,
// with the same limits (64 KiB heads, 5 s to finish one, 2 min idle).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webbrief/internal/gateway"
	"webbrief/internal/httpwire"
)

// Connection limits for clients that never finish (or never start) a
// request: without them a slow-header client pins a connection outside every
// counted outcome. Bodies are bounded by -maxbody and -timeout.
// httpwire.Server applies them as net/http's server did.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbgate: ")
	backendsFlag := flag.String("backends", "", "comma-separated wbserve backends, host:port each (required)")
	addr := flag.String("addr", ":8080", "listen address")
	vnodes := flag.Int("vnodes", gateway.DefaultVNodes, "virtual nodes per backend on the hash ring")
	maxConns := flag.Int("max-conns", 32, "max concurrent relays per backend (overflow waits at the gateway)")
	attempts := flag.Int("attempts", 0, "max distinct backends tried per request (0 = the whole fleet)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that eject a backend from rotation")
	breakerCooldown := flag.Duration("breaker-cooldown", 500*time.Millisecond, "ejection to first readmission probe")
	probeEvery := flag.Duration("probe-interval", 100*time.Millisecond, "health probe cadence for ejected backends")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline, failover attempts included (0 = none)")
	maxBody := flag.Int64("maxbody", gateway.DefaultMaxBodyBytes, "request body limit in bytes (over-limit bodies get 413)")
	reloadTimeout := flag.Duration("reload-timeout", 60*time.Second, "per-backend deadline when driving a fleet reload")
	drainWait := flag.Duration("drain", 30*time.Second, "max time to drain in-flight relays on shutdown")
	reloadSignal := flag.Bool("reload-signal", true, "drive a rolling fleet model reload on SIGHUP (POST /admin/reload always works)")
	flag.Parse()

	var backends []string
	for _, b := range strings.Split(*backendsFlag, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		log.Fatal("no backends: pass -backends host:port[,host:port...]")
	}

	g, err := gateway.New(gateway.Config{
		Backends:           backends,
		VNodes:             *vnodes,
		MaxConnsPerBackend: *maxConns,
		Attempts:           *attempts,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		ProbeInterval:      *probeEvery,
		Timeout:            *timeout,
		ReloadTimeout:      *reloadTimeout,
		MaxBodyBytes:       *maxBody,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &httpwire.Server{
		Handler:           g.Handler(),
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
				rep, err := g.FleetReload(context.Background())
				if err != nil {
					log.Printf("fleet reload: %v", err)
					continue
				}
				for _, b := range rep.Backends {
					if b.Error != "" {
						log.Printf("reload %s: %s (old model keeps serving there)", b.Backend, b.Error)
					}
				}
				log.Printf("fleet reload drove in %v: %d/%d backends reloaded, fleet generation %d",
					time.Since(start).Round(time.Millisecond), rep.Reloaded, g.Ring().Size(), rep.FleetGeneration)
			}
		}()
	}

	errc := make(chan error, 1)
	//wbcheck:ignore goshutdown -- accept loop lives for the whole process; Serve returns when Shutdown below closes the listener, and the buffered errc send never leaks it
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("routing briefings on %s across %d backends: %v (POST HTML to /brief; /healthz, /metrics, /admin/reload)",
		*addr, g.Ring().Size(), g.Ring().Backends())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("draining (max %v)...", *drainWait)
	g.BeginShutdown() // /healthz now 503; new briefings refused
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("drained, bye")
}
