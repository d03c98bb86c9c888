package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/gateway"
	"webbrief/internal/htmldom"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// beamWidth is wbserve's default -beam, which every workload runs with.
const beamWidth = 8

// replayer walks requests through the public functions of each layer on
// one goroutine, in the order the binaries call them, with a span around
// every call. It is the harness's model of the serving path: in-program
// tracing is a later change, so the per-layer times come from here and the
// end-to-end times never do.
type replayer struct {
	w      workload
	model  *wb.JointWB
	vocab  *textproc.Vocab
	tr     *tracer // nil while replaying the warm-up: same work, no spans
	req    int     // the request being replayed, its root span and its open stage
	root   int
	cur    int
	ring   *gateway.Ring
	caches map[string]*briefcache.Cache // per backend, as in the fleet

	scratch  *wb.InferScratch
	student  *wb.JointWB32
	sscratch *wb.InferScratch32
	buf      bytes.Buffer
}

func newReplayer(w workload, m *wb.JointWB, v *textproc.Vocab) (*replayer, error) {
	r := &replayer{w: w, model: m, vocab: v, scratch: wb.NewInferScratchFor(v, beamWidth)}
	if w.cascade {
		s, err := wb.ConvertJointWB(m)
		if err != nil {
			return nil, err
		}
		r.student, r.sscratch = s, wb.NewInferScratch32For(v, beamWidth)
	}
	backends := []string{backendAddrA}
	if w.fleet {
		backends = append(backends, backendAddrB)
		r.ring = gateway.NewRing(backends, gateway.DefaultVNodes)
	}
	if w.cache > 0 {
		r.caches = map[string]*briefcache.Cache{}
		for _, b := range backends {
			r.caches[b] = briefcache.New(briefcache.Config{Capacity: w.cache})
		}
	}
	return r, nil
}

// start opens request i's root span.
func (r *replayer) start(i int) {
	if r.tr != nil {
		r.req, r.cur = i, -1
		r.root = r.tr.begin(i, -1, "replay", r.tr.now())
	}
}

// stage ends the request's current stage and begins the next at the same
// instant, so one clock read marks each boundary.
func (r *replayer) stage(name string) {
	if r.tr == nil {
		return
	}
	at := r.tr.now()
	if r.cur >= 0 {
		r.tr.end(r.cur, at)
	}
	r.cur = r.tr.begin(r.req, r.root, name, at)
}

// finish ends the last stage and then, on a clock read of its own, the
// root: what the root keeps as self time is the replay's own overhead.
func (r *replayer) finish() {
	if r.tr != nil {
		r.tr.end(r.cur, r.tr.now())
		r.tr.end(r.root, r.tr.now())
	}
}

// brief replays request i and returns the response bytes the server would
// write for it.
func (r *replayer) brief(i int, req request) []byte {
	body := []byte(req.body) // the server is handed bytes; the copy is the harness's
	r.start(i)
	defer r.finish()

	// The harness built the query itself, so it always parses.
	rawQuery := req.path[strings.IndexByte(req.path, '?')+1:]
	backend := backendAddrA
	if r.ring != nil {
		r.stage("gateway.route")
		q, _ := url.ParseQuery(rawQuery)
		backend = r.ring.Candidates(gateway.RouteKey(rawQuery, q.Get("src"), body), 0)[0]
	}

	// Cache stage, as serve.cacheServe: the domain's admission, the
	// raw-bytes alias, then the rendered-visible-text content key.
	var cache *briefcache.Cache
	var rawKey, contentKey briefcache.Key
	if r.caches != nil {
		cache = r.caches[backend]
		r.stage("briefcache.lookup")
		q, _ := url.ParseQuery(rawQuery)
		cache.Admit(briefcache.SrcDomain(q.Get("src"))) // no policy is loaded: always admitted
		rawKey = briefcache.KeyOf(body)
		if out, ok := cache.LookupRaw(rawKey); ok {
			return out
		}
		r.stage("htmldom.parse")
		visible := htmldom.VisibleText(htmldom.Parse(req.body))
		r.stage("briefcache.lookup")
		contentKey = briefcache.KeyOf([]byte(visible))
		if out, ok := cache.Lookup(contentKey); ok {
			cache.Alias(rawKey, contentKey)
			return out
		}
	}

	// Parse stage, as wb.InstanceFromHTML.
	r.stage("htmldom.parse")
	lines := htmldom.VisibleLines(htmldom.Parse(req.body))
	r.stage("textproc.normalize")
	sents := textproc.NormalizeDocument(lines)
	r.stage("wb.instance")
	inst := wb.InstanceFromSentences(sents, r.vocab, 0)

	// Encode and decode, as serve's modelReplica: the float32 student first
	// when the cascade is on, the float64 teacher for the whole briefing
	// when it is off or the student's confidence is below the threshold.
	var b *wb.Brief
	escalate := r.student == nil
	if r.student != nil {
		r.stage("wb.encode_f32")
		b = wb.ExtractBriefWith32(r.student, inst, r.vocab, r.sscratch)
		r.stage("wb.decode_f32")
		topic, conf := wb.DecodeTopicWith32(r.student, inst, r.vocab, beamWidth, r.sscratch)
		b.Topic = topic
		escalate = conf.Score() < cascadeThreshold
	}
	if escalate {
		r.stage("wb.encode_f64")
		b = wb.ExtractBriefWith(r.model, inst, r.vocab, r.scratch)
		r.stage("wb.decode_f64")
		b.Topic = wb.DecodeTopicWith(r.model, inst, r.vocab, beamWidth, r.scratch)
	}

	r.stage("serve.respond")
	r.buf.Reset()
	json.NewEncoder(&r.buf).Encode(b) // a Brief of strings and ints always encodes
	out := r.buf.Bytes()
	if cache != nil {
		r.stage("briefcache.insert")
		out = cache.Insert(contentKey, rawKey, out, 0)
	}
	return out
}

// replayLayers maps span names to the per-layer metrics they feed, with the
// divisor from nanoseconds to the metric's unit.
var replayLayers = []struct {
	span, metric string
	perUnit      float64
}{
	{"gateway.route", "gateway.route_us", 1e3},
	{"briefcache.lookup", "briefcache.lookup_us", 1e3},
	{"briefcache.insert", "briefcache.insert_us", 1e3},
	{"htmldom.parse", "htmldom.parse_us", 1e3},
	{"textproc.normalize", "textproc.normalize_us", 1e3},
	{"wb.instance", "wb.instance_us", 1e3},
	{"wb.encode_f64", "wb.encode_f64_ms", 1e6},
	{"wb.decode_f64", "wb.decode_f64_ms", 1e6},
	{"wb.encode_f32", "wb.encode_f32_ms", 1e6},
	{"wb.decode_f32", "wb.decode_f32_ms", 1e6},
}

// tracedReplay replays the warm-up untraced when there are caches (so that
// they hold what the servers' caches held) and then the first n measured
// requests traced. It
// checks every replayed response against the one the real server gave
// (served returns nil for a request the server never saw), enforces the
// latency partition, and fills the replay-sourced per-layer metrics: a
// layer's number is its mean self time per call.
func tracedReplay(r *replayer, tr *tracer, warm, seq *sequence, n int, served func(i int, req request) []byte, out *metricSet) error {
	if r.caches != nil {
		for i := 0; i < r.w.warm; i++ {
			r.brief(i, warm.at(i))
		}
	}
	r.tr = tr
	for i := 0; i < n; i++ {
		req := seq.at(i)
		got := r.brief(i, req)
		if want := served(i, req); want != nil && !bytes.Equal(got, want) {
			return fmt.Errorf("replay of request %d diverged from the server's response:\n replay %s server %s", i, got, want)
		}
	}
	byName, rootSelf, rootTotal, err := selfTimes(tr.spans, "replay")
	if err != nil {
		return fmt.Errorf("latency partition: %w", err)
	}
	for _, l := range replayLayers {
		if st := byName[l.span]; st.count > 0 {
			out.set(l.metric, float64(st.selfNS)/float64(st.count)/l.perUnit)
		}
	}
	out.set("trace.requests", float64(n))
	out.set("trace.unattributed_share", ratio(float64(rootSelf), float64(rootTotal)))
	return nil
}

// kernelLayers times the packed matmul at the shape of the bundle's BiLSTM
// input-gate product — a page of the given token count times the
// embedding-to-gates weight — in both precisions, and reports the flop
// count and the bytes each call touches, computed from the shape.
func kernelLayers(tokens int, out *metricSet) {
	rows, inner, cols := tokens, bundleEmbDim, 4*bundleHidden
	a64, b64, d64 := tensor.New(rows, inner), tensor.New(inner, cols), tensor.New(rows, cols)
	a32, b32, d32 := tensor.New32(rows, inner), tensor.New32(inner, cols), tensor.New32(rows, cols)
	for i := range a64.Data {
		a64.Data[i] = float64(i%7) * 0.125
		a32.Data[i] = float32(a64.Data[i])
	}
	for i := range b64.Data {
		b64.Data[i] = float64(i%5) * 0.0625
		b32.Data[i] = float32(b64.Data[i])
	}
	var p64 tensor.PackBuf
	var p32 tensor.PackBuf32
	// Median of several short batches: one preempted batch does not move it.
	const batches, calls = 7, 30
	var ns64, ns32 []float64
	for k := 0; k < batches; k++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			tensor.MatMulPackInto(d64, a64, b64, &p64)
		}
		t1 := time.Now()
		for i := 0; i < calls; i++ {
			tensor.MatMulPackInto32(d32, a32, b32, &p32)
		}
		t2 := time.Now()
		ns64 = append(ns64, float64(t1.Sub(t0))/calls)
		ns32 = append(ns32, float64(t2.Sub(t1))/calls)
	}
	out.set("tensor.packed_f64_ns", median(ns64))
	out.set("tensor.packed_f32_ns", median(ns32))
	out.set("tensor.packed_flops", float64(2*rows*inner*cols))
	elems := rows*inner + inner*cols + 2*rows*cols // dst is read and written
	out.set("tensor.packed_f64_bytes", float64(8*elems))
	out.set("tensor.packed_f32_bytes", float64(4*elems))
}
