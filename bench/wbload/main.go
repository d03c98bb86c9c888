// Command wbload is the repository's end-to-end, layer-attributed serving
// benchmark. It builds cmd/wbserve, cmd/wbgate and cmd/wbtrain from the
// checkout, trains the benchmark bundle, boots the real binaries as child
// processes on fixed loopback ports, drives them with a seeded page mix,
// checks every response, reconciles client counts against the servers'
// /metrics, and reports the end-to-end metrics of BENCHMARK.json plus a
// per-layer table. See bench/README.md.
//
//	bench/run.sh --workload fleet-hit --seed 1 --seconds 20 --trace 0   # one driver run
//	bench/run.sh -seed 1          # the full ledger: four workloads, traces, bench/out/*.json
//	bench/run.sh -smoke           # all four workloads in under 20 s
//	bench/run.sh -compare bench/out/a.json bench/out/b.json
//	bench/run.sh --workload fleet-mixed -rate 60   # developer option: open loop, 60 arrivals/s
//
// Timed end-to-end metrics are in reference time: see calib.go.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// harness is what every workload of one invocation shares.
type harness struct {
	root   string // checkout root
	binDir string // built commands under test
	outDir string // ledger and trace files

	seed   int64
	window time.Duration
	setups int  // boot + warm-up cycles per workload; setup_s is their median
	trace  bool // run the traced replay and report the per-layer table

	bundle    string // model bundle path
	bundleSHA string
	model     *wb.JointWB
	vocab     *textproc.Vocab
	pages     []page
	cal       *calibrator

	buildS, trainS, loadMS float64
}

// workloadResult is one workload's outcome, the unit of the ledger file.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// ledger is the file a full run writes under bench/out/, and the input of
// -compare.
type ledger struct {
	Seed         int64                     `json:"seed"`
	Seconds      float64                   `json:"seconds"`
	BundleSHA256 string                    `json:"bundle_sha256"`
	NumCPU       int                       `json:"num_cpu"`
	GoVersion    string                    `json:"go_version"`
	Workloads    map[string]workloadResult `json:"workloads"`
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()
	err := run()
	stopAllChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbload:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "checkout root (holds cmd/, internal/ and BENCHMARK.json)")
	name := flag.String("workload", "", "run one workload and print its result object as the last line (default: all four, written to bench/out/)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests and arrival schedule")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (scrape + traced replay); -1: both")
	smoke := flag.Bool("smoke", false, "developer check of the harness itself: every workload for 1 s, one set-up, oracle and reconciliation, no replay")
	compare := flag.Bool("compare", false, "compare two ledger files: wbload -compare a.json b.json")
	rate := flag.Float64("rate", 0, "developer option, not part of BENCHMARK.json: drive the chosen workloads open loop, this many seeded Poisson arrivals per second, latency timed from the due instant")
	flag.Parse()

	abs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two ledger files")
		}
		return compareLedgers(filepath.Join(abs, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "wbserve")); err != nil {
		return fmt.Errorf("%s is not a webbrief checkout: %v", abs, err)
	}

	h := &harness{
		root:   abs,
		binDir: filepath.Join(abs, ".bench_build", "bin"),
		outDir: filepath.Join(abs, "bench", "out"),
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		setups: 3,
		trace:  *trace != 0,
	}
	if *smoke {
		h.window, h.setups, h.trace = time.Second, 1, false
	}
	if *trace == 1 {
		h.setups = 1 // setup_s is not reported; boot once
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	if err := h.prepare(); err != nil {
		return err
	}

	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	if *rate > 0 {
		todo = append([]workload(nil), todo...)
		for i := range todo {
			todo[i].rate = *rate
		}
	}
	led := ledger{
		Seed: h.seed, Seconds: h.window.Seconds(), BundleSHA256: h.bundleSHA,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: map[string]workloadResult{},
	}
	fmt.Printf("bundle sha256 %s\n", h.bundleSHA)
	cpu, err := pinToOneCPU() // after the build and the training, which use every core
	if err != nil {
		return err
	}
	fmt.Printf("generator and servers pinned to cpu %d\n", cpu)
	for _, w := range todo {
		res, err := h.runWorkload(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if *trace == 1 {
			res.EndToEnd = nil
		}
		led.Workloads[w.name] = res
	}

	if *name == "" {
		path := filepath.Join(h.outDir, fmt.Sprintf("wbload-seed%d.json", h.seed))
		if *smoke {
			path = filepath.Join(h.outDir, "wbload-smoke.json")
		}
		b, err := json.MarshalIndent(led, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("ledger written to %s\n", path)
		for _, res := range led.Workloads {
			if !res.Correct {
				return errors.New("a workload had failed requests")
			}
		}
		return nil
	}

	// One workload: the result object is the last line of standard output.
	res := led.Workloads[*name]
	metrics := map[string]metricValue{}
	for k, v := range res.EndToEnd {
		metrics[k] = v
	}
	for k, v := range res.PerLayer {
		metrics[k] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// prepare builds the binaries, trains (or finds) the bundle, loads it for
// the oracle and the replay, and generates the page universe.
func (h *harness) prepare() error {
	t0 := time.Now()
	if err := buildBinaries(h.root, h.binDir); err != nil {
		return err
	}
	h.buildS = time.Since(t0).Seconds()

	t0 = time.Now()
	var err error
	if h.bundle, h.bundleSHA, err = trainBundle(h.binDir); err != nil {
		return err
	}
	h.trainS = time.Since(t0).Seconds()

	raw, err := os.ReadFile(h.bundle)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if h.model, h.vocab, err = wb.LoadModelAuto(bytes.NewReader(raw)); err != nil {
		return fmt.Errorf("load bundle: %w", err)
	}
	h.loadMS = float64(time.Since(t0)) / 1e6

	h.cal = newCalibrator()
	h.pages, err = buildUniverse(h.seed)
	return err
}

// missingCounter is the panic value of counters.get; runWorkload turns it
// into an error.
type missingCounter string

// runWorkload sets the workload's servers up (h.setups times, keeping the
// last), measures one window of load, stops the servers, and then checks
// and attributes what it measured.
func (h *harness) runWorkload(w workload) (res workloadResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			mc, ok := r.(missingCounter)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("/metrics has no %q: the scrape keys in bench/wbload/scrape.go need updating", string(mc))
		}
	}()

	addrs := []string{backendAddrA}
	if w.fleet {
		addrs = append(addrs, backendAddrB, gatewayAddr)
	}
	if err := preflight(addrs...); err != nil {
		return res, err
	}

	warm := w.warmup(h.seed, h.pages)
	seq := w.sequence(h.seed, h.pages, h.window)
	warmDue := make([]time.Duration, w.warm) // all due at once: a fixed count, as fast as the clients go
	conns := clients
	if w.rate > 0 {
		conns = openConns
	}

	var fl *fleet
	var c *client
	var setupS []float64
	var bootS float64
	for k := 0; k < h.setups; k++ {
		if fl != nil {
			c.close()
			fl.stop()
		}
		slow := h.cal.spot(setupUnits)
		t0 := time.Now()
		if fl, err = bootFleet(w, h.binDir, h.bundle); err != nil {
			return res, err
		}
		bootS = time.Since(t0).Seconds()
		c = newClient(w.target(), conns, warm)
		runLoad(realClock{}, clients, 0, warmDue, c.do, nil)
		raw := time.Since(t0).Seconds()
		slow = (slow + h.cal.spot(setupUnits)) / 2
		setupS = append(setupS, raw/slow)
		if n := c.failed.Load(); n > 0 {
			return res, fmt.Errorf("%d warm-up requests failed: %v", n, c.errs)
		}
	}
	defer fl.stop()
	defer c.close()

	// The measured window, bracketed by scrapes. The client keeps its
	// per-page response table from the warm-up, so a primed miss and a later
	// hit of the same page must agree byte for byte.
	c.seq, c.unique = seq, nil
	before, err := fl.scrapeSettled()
	if err != nil {
		return res, err
	}
	cpu0, err := fl.cpuTime()
	if err != nil {
		return res, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return res, err
	}
	h.cal.begin(time.Now())
	idle, stopCal := h.cal.tick, func() {}
	if w.rate > 0 { // open-loop workers sleep between arrivals; calibrate beside them
		idle, stopCal = nil, h.cal.tickBeside()
	}
	timings, elapsed := runLoad(realClock{}, conns, h.window, seq.due, c.do, idle)
	stopCal()
	speed, err := h.cal.profile(elapsed)
	if err != nil {
		return res, err
	}
	steal1, err := hostSteal()
	if err != nil {
		return res, err
	}
	after, err := fl.scrapeSettled()
	if err != nil {
		return res, err
	}
	cpu1, err := fl.cpuTime()
	if err != nil {
		return res, err
	}
	rss, err := fl.peakRSS()
	if err != nil {
		return res, err
	}
	c.close()
	fl.stop() // frees the cores for the oracle and the replay

	sent := len(timings)
	if sent == 0 {
		return res, errors.New("no request was sent")
	}
	ok := sent - int(c.failed.Load())
	delta := after.sub(before)
	if err := reconcile(w, delta, sent, ok); err != nil {
		return res, err
	}

	var tr *tracer
	if h.trace {
		tr = newTracer()
	}
	if err := c.verify(w, h.seed, h.model, h.vocab, tr); err != nil {
		return res, err
	}
	failed := int(c.failed.Load())
	ok = sent - failed
	if ok < 0 {
		ok = 0
	}

	// Latencies in reference time: each divided by the host's slowdown in
	// the slice of the run it started in (calib.go).
	var lat, rawLat, late []float64
	for _, t := range timings {
		rawLat = append(rawLat, float64(t.latency)/1e6)
		lat = append(lat, float64(t.latency)/1e6/speed.at(t.at))
		if t.slept {
			late = append(late, float64(t.late)/1e6)
		}
	}
	sorted := sortedCopy(lat)
	p50, _ := percentile(sorted, 0.50)
	p90, beyond90 := percentile(sorted, 0.90)
	p99, beyond99 := percentile(sorted, 0.99)
	lateP99, _ := percentile(sortedCopy(late), 0.99)

	// A closed loop completes work as fast as the host lets it, so its rate
	// is per reference second; an open loop's rate is its schedule's.
	refS := speed.refSeconds(elapsed)
	slowdown := elapsed.Seconds() / refS
	perS := refS
	if w.rate > 0 {
		perS = elapsed.Seconds()
	}

	e2e := newMetricSet(endToEnd)
	e2e.set("throughput_rps", float64(ok)/perS)
	e2e.set("brief_mean_ms", mean(lat))
	e2e.set("brief_p50_ms", p50)
	e2e.set("brief_p90_ms", p90)
	e2e.set("cpu_ms_per_brief", ratio(float64(cpu1-cpu0)/1e6/slowdown, float64(ok)))
	e2e.set("setup_s", median(setupS))
	e2e.print(os.Stdout, w.name)
	// Printed on every run: the factor that turns the reference times above
	// back into this run's wall-clock times.
	fmt.Printf("%-30s %-20s %14.6g ratio\n", "host.slowdown", w.name, slowdown)
	fmt.Printf("%-30s %-20s %14.6g ratio\n", "host.steal_share", w.name, steal1.sub(steal0))
	res = workloadResult{Correct: failed == 0, Attempted: sent, Failed: failed, EndToEnd: e2e.wire()}
	for _, e := range c.errs {
		fmt.Fprintf(os.Stderr, "wbload: %s: FAILED %s\n", w.name, e)
	}
	if !h.trace {
		return res, nil
	}

	layers := newMetricSet(perLayer)
	scrapedLayers(delta, mean(rawLat), layers)
	layers.set("host.slowdown", slowdown)
	layers.set("host.steal_share", steal1.sub(steal0))
	layers.set("setup.build_s", h.buildS)
	layers.set("setup.train_s", h.trainS)
	layers.set("setup.boot_s", bootS)
	layers.set("snapshot.load_ms", h.loadMS)
	layers.set("proc.peak_rss_mb", float64(rss)/(1<<20))
	layers.set("loadgen.sent", float64(sent))
	layers.set("loadgen.ok", float64(ok))
	layers.set("loadgen.failed", float64(failed))
	layers.set("loadgen.fail_ratio", float64(failed)/float64(sent))
	layers.set("loadgen.p99_ms", p99)
	layers.set("loadgen.p99_beyond", float64(beyond99))
	layers.set("loadgen.p90_beyond", float64(beyond90))
	layers.set("loadgen.late_ms_p99", lateP99)
	tokens := seq.tokensPerRequestMean(sent)
	layers.set("loadgen.tokens_per_page_mean", tokens)
	kernelLayers(int(tokens+0.5), layers)

	n := w.replay
	if seq.due != nil && n > len(seq.due) {
		n = len(seq.due)
	}
	rp, err := newReplayer(w, h.model, h.vocab)
	if err != nil {
		return res, err
	}
	if err := tracedReplay(rp, tr, warm, seq, n, c.servedBody, layers); err != nil {
		return res, err
	}
	if err := tr.write(filepath.Join(h.outDir, "trace-"+w.name+".json")); err != nil {
		return res, err
	}
	layers.print(os.Stdout, w.name)
	checkPurpose(w, layers)
	res.PerLayer = layers.wire()
	return res, nil
}

// purpose states, per workload, the ranges that show it still does what it
// was chosen for. A value outside its range is reported, not failed: the
// numbers stay valid, but the workload no longer isolates what its "why"
// says and the sizing in workload.go needs another look.
var purpose = []struct {
	workload, metric string
	lo, hi           float64
}{
	{"direct-miss-cascade", "serve.escalation_rate", 0.05, 0.25},
	{"fleet-hit", "briefcache.hit_ratio", 0.99, 1},
	{"fleet-mixed", "briefcache.hit_ratio", 0.7, 0.9},
	{"direct-miss-teacher", "trace.unattributed_share", 0, 0.05},
	{"direct-miss-cascade", "trace.unattributed_share", 0, 0.05},
	{"fleet-hit", "trace.unattributed_share", 0, 0.2}, // a 1.7 µs replayed request against two 34 ns clock reads
	{"fleet-mixed", "trace.unattributed_share", 0, 0.05},
}

func checkPurpose(w workload, layers *metricSet) {
	for _, p := range purpose {
		if p.workload != w.name {
			continue
		}
		v, verdict := layers.get(p.metric), "ok"
		if v < p.lo || v > p.hi {
			verdict = "OUT OF RANGE"
		}
		fmt.Printf("purpose %-20s %-28s %.4g in [%g, %g]: %s\n", w.name, p.metric, v, p.lo, p.hi, verdict)
	}
}
