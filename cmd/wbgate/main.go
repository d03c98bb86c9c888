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
// time and each within 60 s, so at most one backend is warming a shadow pool
// while the rest serve. A request tries its candidates around the ring until
// one answers, up to the whole fleet; the ring gives each backend
// gateway.DefaultVNodes virtual nodes. /metrics reports per-backend requests, errors, breaker state,
// model generation and connection reuse; /healthz aggregates fleet health.
// SIGINT/SIGTERM drain gracefully, for at most -drain; a fleet reload under
// way does not hold the drain up.
//
// Every /brief response carries X-Request-Id: the client's, if it sent 1–64
// bytes with no space or control byte, else one minted here (a random
// per-process prefix and a counter, 16 hex digits). Every relay attempt to a
// backend carries it too, so the backends' access logs join on it. The
// inbound HTTP/1.1 server is internal/httpwire, the same one wbserve runs,
// with the same fixed limits (64 KiB heads, 5 s to finish one, 2 min idle);
// httpwire.Run is the serving end of both mains.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"webbrief/internal/gateway"
	"webbrief/internal/httpwire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbgate: ")
	backendsFlag := flag.String("backends", "", "comma-separated wbserve backends, host:port each (required)")
	addr := flag.String("addr", ":8080", "listen address")
	maxConns := flag.Int("max-conns", 32, "max concurrent relays per backend (overflow waits at the gateway)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that eject a backend from rotation")
	breakerCooldown := flag.Duration("breaker-cooldown", 500*time.Millisecond, "ejection to first readmission probe")
	probeEvery := flag.Duration("probe-interval", 100*time.Millisecond, "health probe cadence for ejected backends")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline, failover attempts included (0 = none)")
	maxBody := flag.Int64("maxbody", httpwire.DefaultMaxBodyBytes, "request body limit in bytes (over-limit bodies get 413)")
	drainWait := flag.Duration("drain", 30*time.Second, "max time to drain in-flight relays on shutdown")
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
		MaxConnsPerBackend: *maxConns,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		ProbeInterval:      *probeEvery,
		Timeout:            *timeout,
		MaxBodyBytes:       *maxBody,
	})
	if err != nil {
		log.Fatal(err)
	}

	reload := func() {
		start := time.Now()
		rep, err := g.FleetReload(context.Background())
		if err != nil {
			log.Printf("fleet reload: %v", err)
			return
		}
		for _, b := range rep.Backends {
			if b.Error != "" {
				log.Printf("reload %s: %s (old model keeps serving there)", b.Backend, b.Error)
			}
		}
		log.Printf("fleet reload drove in %v: %d/%d backends reloaded, fleet generation %d",
			time.Since(start).Round(time.Millisecond), rep.Reloaded, g.Ring().Size(), rep.FleetGeneration)
	}
	banner := fmt.Sprintf("routing briefings on %s across %d backends: %v (POST HTML to /brief; /healthz, /metrics, /admin/reload)",
		*addr, g.Ring().Size(), g.Ring().Backends())
	if err := httpwire.Run(*addr, banner, g, reload, *drainWait); err != nil {
		log.Fatal(err)
	}
}
