package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"webbrief/internal/serve"
)

// The fixed loopback ports. The ring assigns route keys by backend name, so
// dynamic ports would change routing from run to run.
const (
	backendAddrA = "127.0.0.1:18417" // also the single wbserve of the direct-* workloads
	backendAddrB = "127.0.0.1:18418"
	gatewayAddr  = "127.0.0.1:18419"
)

// cascadeThreshold is the escalation cutoff of the cascade workloads, sized
// so the benchmark bundle escalates one briefing in five (the student's
// score quantiles on it: 10% 0.016, 20% 0.030, 30% 0.042). At one in five
// the 90th latency percentile sits in the middle of the escalated briefings;
// at the one in seven of 0.02 it sat on the edge between the two tiers and
// jumped between 19 and 35 ms from seed to seed.
const cascadeThreshold = 0.03

// hotSetSize is fleet-hit's working set.
const hotSetSize = 64

// workload is one traffic mix and the server topology it runs against.
type workload struct {
	name string
	why  string

	fleet   bool    // wbgate → two wbserve -replicas 1; otherwise one wbserve
	cache   int     // wbserve -cache entries (0 = off)
	cascade bool    // wbserve -cascade -confidence-threshold cascadeThreshold
	rate    float64 // open-loop Poisson arrivals per second; 0 = closed loop (every workload, unless -rate is given)
	unique  bool    // every request carries a sentence no other has
	zipf    float64 // popularity exponent over the whole universe; 0 = uniform over span
	span    int     // pages a uniform workload draws from
	prime   int     // warm-up starts by posting pages 0..prime-1 once each
	warm    int     // warm-up requests before timing: fixed work, counted in setup_s
	replay  int     // requests the traced replay covers
}

// clients is the closed-loop client count and connection cap. One client
// keeps one request in flight: what one user waits for, and no more work
// at any instant than the one core the harness pins itself and the servers
// to (pinToOneCPU). With two clients on the sizing box's two cores the
// servers filled both, and every other runnable thread of guest or host
// showed up as latency.
const clients = 1

// openConns is the connection cap of an open-loop run (-rate). Arrivals are
// independent users, so the generator must not be what they queue behind:
// with two connections its own queue was half of fleet-mixed's mean latency
// at 60 req/s. Sixteen leaves the waiting to the servers' admission queues,
// where serve.queue_wait_ms sees it.
const openConns = 16

var workloads = []workload{
	{
		name:   "direct-miss-teacher",
		why:    "one wbserve, no cache, every page unique: the f64 model stack does >95% of the work; gateway, cache and f32 stack do nothing",
		unique: true, span: universeSize, warm: 40, replay: 150,
	},
	{
		name:    "direct-miss-cascade",
		why:     "same with -cascade: the f32 student does most of the work and the teacher only escalations, so f32 changes show here and not on direct-miss-teacher",
		cascade: true, unique: true, span: universeSize, warm: 100, replay: 300,
	},
	{
		name:  "fleet-hit",
		why:   "wbgate to two cached backends over a primed 64-page set: the model is bypassed, so time is gateway relay, net/http, cache lookup and handler overhead",
		fleet: true, cache: 4096, span: hotSetSize, prime: hotSetSize, warm: hotSetSize + 2000, replay: 2000,
	},
	{
		name:  "fleet-mixed",
		why:   "same fleet, small cache, cascade, Zipf popularity over 2000 pages: hits, misses, inserts and evictions all occur, every layer in one run",
		fleet: true, cache: 512, cascade: true, zipf: 1.1, warm: 400, replay: 400,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// target is the address clients post to.
func (w workload) target() string {
	if w.fleet {
		return gatewayAddr
	}
	return backendAddrA
}

// serveArgs are the wbserve flags of one server process of this workload.
func (w workload) serveArgs(model, addr string) []string {
	args := []string{"-model", model, "-addr", addr, "-quiet"}
	if w.fleet {
		args = append(args, "-replicas", "1") // each backend stands for a one-core machine
	}
	if w.cache > 0 {
		args = append(args, "-cache", strconv.Itoa(w.cache))
	}
	if w.cascade {
		args = append(args, "-cascade", "-confidence-threshold", strconv.FormatFloat(cascadeThreshold, 'g', -1, 64))
	}
	return args
}

// referenceConfig is the in-process reference server of the correctness
// oracle: the same model flags, one replica, no cache.
func (w workload) referenceConfig() serve.Config {
	return serve.Config{Replicas: 1, Cascade: w.cascade, ConfidenceThreshold: cascadeThreshold}
}

// Salts separating the seeded streams of one run.
const (
	saltMeasure = 0x6d656173
	saltWarm    = 0x7761726d
	saltSample  = 0x73616d70
)

// sequence builds the workload's measured request stream for a run of the
// given length.
func (w workload) sequence(seed int64, pages []page, window time.Duration) *sequence {
	rng := rand.New(rand.NewSource(seed ^ saltMeasure))
	s := &sequence{seed: seed ^ saltMeasure, pages: pages, unique: w.unique}
	n := closedOrderLen
	if w.rate > 0 {
		n = int(w.rate*window.Seconds() + 0.5)
		s.due = poissonArrivals(rng, n, window)
	}
	s.order = w.drawOrder(rng, n)
	return s
}

// warmup builds the warm-up stream: w.prime pages posted once each, then
// the workload's own distribution from a separate seeded source.
func (w workload) warmup(seed int64, pages []page) *sequence {
	rng := rand.New(rand.NewSource(seed ^ saltWarm))
	s := &sequence{seed: seed ^ saltWarm, pages: pages, unique: w.unique}
	for i := 0; i < w.prime; i++ {
		s.order = append(s.order, int32(i))
	}
	s.order = append(s.order, w.drawOrder(rng, w.warm-w.prime)...)
	return s
}

func (w workload) drawOrder(rng *rand.Rand, n int) []int32 {
	if w.zipf > 0 {
		return zipfOrder(rng, w.zipf, universeSize, n)
	}
	return uniformOrder(rng, w.span, n)
}
