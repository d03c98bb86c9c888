package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
)

// counters is one /metrics document flattened to dotted paths
// ("latency_ms.parse.sum_ms", "backends.0.requests_total"). Only numbers
// are kept; the harness reads what the binaries already emit and needs no
// copy of their snapshot structs.
type counters map[string]float64

func flatten(prefix string, v any, out counters) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			flatten(prefix+k+".", c, out)
		}
	case []any:
		for i, c := range v {
			flatten(prefix+strconv.Itoa(i)+".", c, out)
		}
	case float64:
		out[prefix[:len(prefix)-1]] = v
	}
}

// scrape fetches and flattens one process's /metrics.
func scrape(addr string) (counters, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s/metrics: %w", addr, err)
	}
	out := counters{}
	flatten("", doc, out)
	return out, nil
}

// get returns a counter that must exist: a renamed /metrics field should
// fail the run, not read as zero.
func (c counters) get(key string) float64 {
	v, ok := c[key]
	if !ok {
		panic(missingCounter(key))
	}
	return v
}

// sub returns after − before, key by key.
func (after counters) sub(before counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// sameCount compares two counters: whole numbers that JSON delivered as
// float64.
func sameCount(a, b float64) bool { return math.Abs(a-b) < 0.5 }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fleetCounters is one scrape of every server of a workload: the backends
// summed, and the gateway when there is one.
type fleetCounters struct {
	serve   counters // Σ over wbserve processes
	gateway counters // nil on direct workloads
}

func (f *fleet) scrape() (fleetCounters, error) {
	fc := fleetCounters{serve: counters{}}
	for _, p := range f.backends {
		c, err := scrape(p.addr)
		if err != nil {
			return fc, err
		}
		fc.serve.add(c)
	}
	if f.gateway != nil {
		c, err := scrape(f.gateway.addr)
		if err != nil {
			return fc, err
		}
		fc.gateway = c
	}
	return fc, nil
}

func (after fleetCounters) sub(before fleetCounters) fleetCounters {
	d := fleetCounters{serve: after.serve.sub(before.serve)}
	if after.gateway != nil {
		d.gateway = after.gateway.sub(before.gateway)
	}
	return d
}

// scrapeSettled scrapes until every request a backend counted has also
// been observed by its total-latency histogram. wbserve records that
// observation in a deferred call after the response is written, so a
// scrape racing the last response can see the counter without it.
func (f *fleet) scrapeSettled() (fleetCounters, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		fc, err := f.scrape()
		if err != nil {
			return fc, err
		}
		if sameCount(fc.serve.get("latency_ms.total.count"), fc.serve.get("requests_total")) || time.Now().After(deadline) {
			return fc, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// reconcile checks that the servers counted exactly what the clients saw
// between the two scrapes. A run that does not reconcile has measured
// something other than what it reports, so it is an error, not a metric.
func reconcile(w workload, d fleetCounters, sent, ok int) error {
	s := d.serve
	var errs []string
	check := func(what string, got, want float64) {
		if !sameCount(got, want) {
			errs = append(errs, fmt.Sprintf("%s: %v, want %v", what, got, want))
		}
	}
	check("Σ wbserve Δrequests_total vs Δlatency_ms.total.count", s.get("requests_total"), s.get("latency_ms.total.count"))
	if g := d.gateway; g != nil {
		check("wbgate Δrequests_total vs client sent", g.get("requests_total"), float64(sent))
		check("wbgate Δresponses.proxied vs client sent", g.get("responses.proxied"), float64(sent))
		check("Σ wbserve Δrequests_total vs wbgate Δbackend_requests_total", s.get("requests_total"), g.get("backend_requests_total"))
		check("Σ wbgate backends Δrequests_total vs Δbackend_requests_total",
			g.get("backends.0.requests_total")+g.get("backends.1.requests_total"), g.get("backend_requests_total"))
		check("wbgate Δbackend_ok+Δbackend_error vs Δbackend_requests_total",
			g.get("outcomes.backend_ok_total")+g.get("outcomes.backend_error_total"), g.get("backend_requests_total"))
	} else {
		check("wbserve Δrequests_total vs client sent", s.get("requests_total"), float64(sent))
	}
	check("Σ wbserve Δresponses.ok vs client 200s", s.get("responses.ok"), float64(ok))
	check("cache hits+misses+coalesced vs lookups",
		s.get("cache.outcomes.cache_hits_total")+s.get("cache.outcomes.cache_misses_total")+s.get("cache.outcomes.cache_coalesced_total"),
		s.get("cache.cache_lookups_total"))
	check("cascade student+teacher vs cascade requests",
		s.get("cascade.tiers.student_total")+s.get("cascade.tiers.teacher_total"), s.get("cascade.cascade_requests_total"))
	if !w.cascade {
		check("cascade requests on a non-cascade workload", s.get("cascade.cascade_requests_total"), 0)
	}
	if w.cache == 0 {
		check("cache lookups on an uncached workload", s.get("cache.cache_lookups_total"), 0)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s: counts do not reconcile: %v", w.name, errs)
	}
	return nil
}

// scrapedLayers derives the per-layer metrics that come from /metrics
// deltas over the measured window. clientMeanMS is the generator's mean
// latency, the other end of the gateway hop.
func scrapedLayers(d fleetCounters, clientMeanMS float64, out *metricSet) {
	s := d.serve
	stage := func(name string) (sumMS, count float64) {
		return s.get("latency_ms." + name + ".sum_ms"), s.get("latency_ms." + name + ".count")
	}
	totalSum, totalN := stage("total")
	staged := 0.0
	for _, st := range []string{"queue_wait", "parse", "encode", "decode"} {
		sum, n := stage(st)
		out.set("serve."+st+"_ms", ratio(sum, n))
		staged += sum
	}
	out.set("serve.total_ms", ratio(totalSum, totalN))
	// Per request served, so cache hits (which run no stage) weigh in.
	out.set("serve.other_ms", ratio(totalSum-staged, totalN))
	out.set("serve.escalation_rate", ratio(s.get("cascade.tiers.teacher_total"), s.get("cascade.cascade_requests_total")))
	out.set("serve.student_ms", ratio(s.get("cascade.latency_ms.student.sum_ms"), s.get("cascade.latency_ms.student.count")))
	out.set("serve.teacher_ms", ratio(s.get("cascade.latency_ms.teacher.sum_ms"), s.get("cascade.latency_ms.teacher.count")))
	out.set("serve.batch_size_mean", ratio(s.get("batching.batch_size.sum"), s.get("batching.batch_size.count")))
	out.set("serve.batch_wait_ms", ratio(s.get("batching.batch_wait_ns.sum_ns"), s.get("batching.batch_wait_ns.count"))/1e6)
	out.set("serve.shed", s.get("responses.overload")+s.get("responses.timeout")+s.get("responses.replica_failure"))

	lookups := s.get("cache.cache_lookups_total")
	out.set("briefcache.hit_ratio", ratio(s.get("cache.outcomes.cache_hits_total"), lookups))
	out.set("briefcache.coalesced_ratio", ratio(s.get("cache.outcomes.cache_coalesced_total"), lookups))
	out.set("briefcache.evictions", s.get("cache.cache_evictions_total"))
	out.set("briefcache.hit_ms", ratio(s.get("cache.hit_latency_ns.sum_ns"), s.get("cache.hit_latency_ns.count"))/1e6)

	if g := d.gateway; g != nil {
		out.set("gateway.hop_ms", clientMeanMS-ratio(totalSum, totalN))
		attempts := g.get("backend_requests_total")
		share := g.get("backends.0.requests_total")
		if o := g.get("backends.1.requests_total"); o > share {
			share = o
		}
		out.set("gateway.backend_share_max", ratio(share, attempts))
		out.set("gateway.attempts_per_request", ratio(attempts, g.get("requests_total")))
		out.set("gateway.rerouted", g.get("ring.rerouted_total"))
		out.set("gateway.failed", g.get("responses.no_backend")+g.get("responses.backend_failure")+g.get("responses.timeout"))
	}
}
