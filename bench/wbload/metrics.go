package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary and must match BENCHMARK.json (a test checks it).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service would see, measured by
// the untraced black-box run.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"}, // correct 200s per measured second
	{"brief_mean_ms", "ms"},     // mean client latency (open loop: from the due instant)
	{"brief_p50_ms", "ms"},      // median client latency
	{"brief_p90_ms", "ms"},      // 90th percentile client latency
	{"cpu_ms_per_brief", "ms"},  // Δ(utime+stime) of all server processes ÷ correct 200s
	{"setup_s", "s"},            // median boot + warm-up of the workload's servers
}

// perLayer are the single-layer metrics: /metrics deltas over the measured
// window ("scrape"), the traced in-process replay, and harness timers. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"gateway.hop_ms", "ms"},
	{"gateway.route_us", "us"},
	{"gateway.backend_share_max", "ratio"},
	{"gateway.attempts_per_request", "ratio"},
	{"gateway.rerouted", "count"},
	{"gateway.failed", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.parse_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.total_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"serve.escalation_rate", "ratio"},
	{"serve.student_ms", "ms"},
	{"serve.teacher_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.shed", "count"},
	{"briefcache.hit_ratio", "ratio"},
	{"briefcache.coalesced_ratio", "ratio"},
	{"briefcache.evictions", "count"},
	{"briefcache.hit_ms", "ms"},
	{"briefcache.lookup_us", "us"},
	{"briefcache.insert_us", "us"},
	{"htmldom.parse_us", "us"},
	{"textproc.normalize_us", "us"},
	{"wb.instance_us", "us"},
	{"wb.encode_f64_ms", "ms"},
	{"wb.decode_f64_ms", "ms"},
	{"wb.encode_f32_ms", "ms"},
	{"wb.decode_f32_ms", "ms"},
	{"tensor.packed_f64_ns", "ns"},
	{"tensor.packed_f32_ns", "ns"},
	{"tensor.packed_flops", "count"},
	{"tensor.packed_f64_bytes", "count"},
	{"tensor.packed_f32_bytes", "count"},
	{"snapshot.load_ms", "ms"},
	{"setup.build_s", "s"},
	{"setup.train_s", "s"},
	{"setup.boot_s", "s"},
	{"proc.peak_rss_mb", "MB"},
	{"host.slowdown", "ratio"},    // wall time ÷ reference time over the window (calib.go)
	{"host.steal_share", "ratio"}, // /proc/stat steal ÷ all jiffies over the window
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.fail_ratio", "ratio"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.p99_beyond", "count"},
	{"loadgen.p90_beyond", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.tokens_per_page_mean", "count"},
	{"trace.requests", "count"},
	{"trace.unattributed_share", "ratio"},
}

// metricValue is the wire form of one metric in the result line and the
// ledger files.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one value per metric of a table; unset metrics read 0.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a metric of the table; any other name is a bug in the harness.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("wbload: metric " + name + " is not in its table")
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

// wire renders the set for JSON.
func (m *metricSet) wire() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{m.values[d.name], d.unit}
	}
	return out
}

// print writes the set as "name workload value unit" lines.
func (m *metricSet) print(w io.Writer, workload string) {
	for _, d := range m.defs {
		fmt.Fprintf(w, "%-30s %-20s %14.6g %s\n", d.name, workload, m.values[d.name], d.unit)
	}
}
