package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// WarmupHTML builds a synthetic page with roughly n visible tokens (0 = 512)
// — a max-shape stand-in for Warm so every first-use buffer growth (arena
// blocks, beam pools) happens before real traffic.
func WarmupHTML(n int) string {
	if n <= 0 {
		n = 512
	}
	words := []string{
		"alpha", "baseline", "briefing", "capacity", "decode", "encode",
		"forward", "kernel", "latency", "micro", "replica", "scratch",
		"tensor", "throughput", "vector", "window",
	}
	var b strings.Builder
	b.WriteString("<html><head><title>warmup page shape</title></head><body><h1>Warmup briefing page</h1>")
	for i := 0; i < n; i += 8 {
		b.WriteString("<p>")
		for j := 0; j < 8; j++ {
			b.WriteString(words[(i+j)%len(words)])
			b.WriteByte(' ')
		}
		b.WriteString("</p>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Replica is one briefing engine, checked out of a Pool for the duration of a
// batch — the one contract the serving layer, the fault-injection wrapper
// (fault.Replica restates it structurally) and the test doubles all speak. A
// replica is only its models: the two methods are the model stages of the
// briefing pipeline, split so the serving layer can time each one. What comes
// before them — HTML → sentences → instance — is the handler's and the pool's
// (renderPage, Pool.instance), since no replica has anything to say about it:
//
//	EncodeBatch: eval forward pass → attributes + section flags
//	DecodeBatch: beam-search topic generation
//
// Both take a whole batch — of any size, one included — in fused B-row forward
// passes. EncodeBatch retains per-instance state on the replica that the
// matching DecodeBatch consumes (a real model decodes from the forward
// EncodeBatch ran), so the two are called back to back with the same
// instances, under the same exclusive checkout, and a request's deadline is
// checked before the first and after the second, never between. DecodeBatch
// reports how each member moved through the replica's tiers (nil from a
// replica that has none to tell of: the test doubles).
type Replica interface {
	EncodeBatch(insts []*wb.Instance) []*wb.Brief
	DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision
}

// tierModel is one model of a pool generation: built once, read-only at
// inference, and shared — every replica of the generation points at it.
type tierModel struct {
	foldBytes int64       // what its fold tables occupy, 0 when it serves unfolded
	workspace func() tier // a fresh private workspace on the model
}

// shareModel makes model a tierModel, float32 and float64 alike.
func shareModel[T tensor.Float](model wb.ModelOf[T], foldBytes int64, v *textproc.Vocab, beam int) tierModel {
	return tierModel{foldBytes: foldBytes, workspace: func() tier {
		return &tierOf[T]{model: model, vocab: v, beam: beam, scratch: wb.NewBatchScratchOf[T](v, beam, 1)}
	}}
}

// tier is one replica's workspace on one tierModel. The workspace, unlike the
// model, is private: a replica serves one batch at a time (Pool checkout is
// exclusive), so a workspace is never shared between concurrent batches.
type tier interface {
	// extract runs one fused Eval forward; its outputs stay live on the
	// workspace tape for the decode that must follow.
	extract(insts []*wb.Instance) []*wb.Brief
	// decode beam-searches the topics from extract's outputs and returns each
	// member's decode confidence.
	decode(briefs []*wb.Brief) []nn.Confidence
	// brief is extract then decode: the whole pipeline on this tier.
	brief(insts []*wb.Instance) ([]*wb.Brief, []nn.Confidence)
}

// tierOf is tier at one element type, over the generic wb batch pipeline.
type tierOf[T tensor.Float] struct {
	model   wb.ModelOf[T]
	vocab   *textproc.Vocab
	beam    int
	scratch *wb.BatchScratchOf[T]
	outs    []*wb.OutputOf[T] // extract's outputs awaiting decode
}

func (t *tierOf[T]) extract(insts []*wb.Instance) []*wb.Brief {
	briefs, outs := wb.ExtractBriefBatch(t.model, insts, t.vocab, t.scratch)
	t.outs = outs
	return briefs
}

func (t *tierOf[T]) decode(briefs []*wb.Brief) []nn.Confidence {
	confs := wb.DecodeTopicBatch(t.outs, t.vocab, t.beam, t.scratch, briefs)
	t.outs = nil
	return confs
}

func (t *tierOf[T]) brief(insts []*wb.Instance) ([]*wb.Brief, []nn.Confidence) {
	return wb.MakeBriefBatch(t.model, insts, t.vocab, t.beam, t.scratch)
}

// modelReplica is the Replica over a pool generation's models: an ordered
// list of tiers, fastest first, and nothing else of its own. A batch encodes
// and decodes on the first tier; the members whose confidence score falls
// below threshold re-brief on the next tier under the same checkout, and so
// on down the list. An escalation replaces the whole brief (extraction and
// topic), so every answer a client sees came entirely from one tier. A
// teacher-only replica is a list of one, the cascade (Config.Cascade) the
// float32 student in front of the float64 teacher; every tier runs the same
// wb code, instantiated per element type, and every briefing costs one Eval
// forward per tier it reaches.
type modelReplica struct {
	tiers     []tier
	threshold float64 // escalate when confidence score < threshold

	decisions []wb.TierDecision // the batch's report, begun at EncodeBatch
}

// EncodeBatch implements Replica: one fused Eval forward for the whole batch
// on the first tier.
func (r *modelReplica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	t0 := time.Now()
	briefs := r.tiers[0].extract(insts)
	dur := time.Since(t0)
	n := len(r.tiers)
	spent := make([]time.Duration, n*len(insts))
	r.decisions = make([]wb.TierDecision, len(insts))
	for i := range r.decisions {
		// Every member waited the whole fused stage — the same per-request
		// semantics as the serve layer's stage histograms.
		r.decisions[i].Spent = spent[i*n : (i+1)*n]
		r.decisions[i].Spent[0] = dur
	}
	return briefs
}

// DecodeBatch implements Replica: one batched beam search over the outputs
// EncodeBatch retained, then one more batch per further tier for the
// low-confidence subset.
func (r *modelReplica) DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision {
	t0 := time.Now()
	confs := r.tiers[0].decode(briefs)
	dur := time.Since(t0)
	pending := make([]int, len(insts)) // members the current tier briefed
	for i := range insts {
		r.decisions[i].Spent[0] += dur
		pending[i] = i
	}
	for k := 1; k < len(r.tiers); k++ {
		esc := pending[:0] // filtered in place: confs[j] is pending[j]'s
		var escInsts []*wb.Instance
		for j, i := range pending {
			if confs[j].Score() < r.threshold {
				esc = append(esc, i)
				escInsts = append(escInsts, insts[i])
			}
		}
		if len(esc) == 0 {
			break
		}
		t0 := time.Now()
		var tbriefs []*wb.Brief
		tbriefs, confs = r.tiers[k].brief(escInsts)
		dur := time.Since(t0)
		for j, i := range esc {
			*briefs[i] = *tbriefs[j]
			r.decisions[i].Tier = k
			r.decisions[i].Spent[k] = dur
		}
		pending = esc
	}
	return r.decisions
}

// BreakerState is the health state of one replica, circuit-breaker style.
type BreakerState int

// The replica breaker states.
const (
	BreakerClosed   BreakerState = iota // healthy, in rotation
	BreakerOpen                         // ejected after a panic or stall, out of rotation
	BreakerHalfOpen                     // out of rotation, re-admission probes running
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half_open"
	}
}

// Pool holds a fixed set of interchangeable eval-mode replicas. A request
// checks one out with Get, briefs on it exclusively, and returns it with
// Put — so up to Size batches proceed concurrently with no shared mutex,
// unlike wb.Briefer which serialises every forward pass behind one lock.
//
// The pool also tracks per-replica health: a replica that panics or wedges
// is Ejected (breaker open) instead of Put back, shrinking capacity but
// never poisoning later requests; re-admission probing (serve.Server)
// moves it through half-open back to closed once it briefs cleanly again.
type Pool struct {
	size int
	idle chan Replica
	fold FoldStats
	// vocab is the generation's vocabulary (nil for PoolOf): the one that
	// assigns the token ids of every page this pool's replicas brief.
	vocab *textproc.Vocab
	// models are the replicas NewPool built (none for PoolOf), kept so Warm
	// can reach the tiers only an escalation runs on.
	models []*modelReplica

	mu           sync.Mutex
	state        map[Replica]BreakerState
	healthy      int
	ejections    int64
	readmissions int64
}

// NewPool builds one pool generation from m: the models, once — the float64
// teacher as one folded serving copy (wb.FoldForServing: one snapshot encode
// and one decode whatever n is, sharing nothing with m itself) and, when
// cfg.Cascade is set, the float32 student in front of it (wb.FoldStudent;
// GloVe-encoder models only) — and n replicas (0 → GOMAXPROCS) that all read
// those same models and fold tables through workspaces of their own. The pool
// keeps v to build every instance its replicas run (Pool.instance). cfg's
// BeamWidth configures each workspace exactly like wb.NewBriefer, so pooled
// briefings are identical to the serial path's at maxPageTokens; its
// ConfidenceThreshold is the escalation cutoff on the decode confidence
// score: ≤ 0 never escalates, > 1 escalates every briefing.
//
// A model with no snapshot form (a transformer encoder, an ablation) has no
// fold tables either and serves as is, unfolded — which only a pool of one
// may: m stays the caller's to train.
func NewPool(m *wb.JointWB, v *textproc.Vocab, n int, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	var tiers []tierModel // fastest first
	teacher, err := wb.FoldForServing(m, v)
	switch {
	case err == nil:
		tiers = append(tiers, shareModel[float64](teacher, teacher.Tables().Bytes(), v, cfg.BeamWidth))
	case n == 1:
		tiers = append(tiers, shareModel[float64](m, 0, v, cfg.BeamWidth))
	default:
		return nil, fmt.Errorf("serve: fold teacher for %d replicas: %w", n, err)
	}
	if cfg.Cascade {
		student, err := wb.FoldStudent(m)
		if err != nil {
			return nil, fmt.Errorf("serve: float32 student: %w", err)
		}
		tiers = slices.Insert(tiers, 0, shareModel[float32](student, student.Tables().Bytes(), v, cfg.BeamWidth))
	}
	models := make([]*modelReplica, n)
	replicas := make([]Replica, n)
	for i := range replicas {
		r := &modelReplica{threshold: cfg.ConfidenceThreshold}
		for _, t := range tiers {
			r.tiers = append(r.tiers, t.workspace())
		}
		models[i], replicas[i] = r, r
	}
	p := PoolOf(replicas...)
	p.vocab, p.models = v, models
	for _, t := range tiers {
		p.fold.Bytes += t.foldBytes
	}
	p.fold.Built = time.Since(start)
	return p, nil
}

// FoldStats is what folding cost a pool: the bytes all tiers' fold tables
// occupy (each tier's are shared by every replica), and the wall time of
// building the pool's models — the serving copy, the float32 conversion and
// the tables. Bytes is zero for a pool that serves unfolded.
type FoldStats struct {
	Bytes int64
	Built time.Duration
}

// PoolOf wraps pre-built replicas — the seam for serving a non-GloVe model
// or, in tests, replicas with controlled latency or injected faults. It has no
// vocabulary, so its replicas are handed a placeholder instance for every
// page.
func PoolOf(replicas ...Replica) *Pool {
	p := &Pool{
		size:    len(replicas),
		idle:    make(chan Replica, len(replicas)),
		state:   make(map[Replica]BreakerState, len(replicas)),
		healthy: len(replicas),
	}
	for _, r := range replicas {
		p.state[r] = BreakerClosed
		p.idle <- r
	}
	return p
}

// instance turns a parsed page's sentences into the model instance this
// generation's replicas run: token ids under the pool's own vocabulary, the
// head of the page up to maxPageTokens. Building it here, per pool, is what
// keeps a reload onto a bundle with a different vocabulary correct — an id
// never meets an embedding table it was not assigned for.
func (p *Pool) instance(sents [][]string) *wb.Instance {
	if p.vocab == nil {
		return &wb.Instance{}
	}
	return wb.InstanceFromSentences(sents, p.vocab, maxPageTokens)
}

// Warm briefs html twice on every replica, as a batch of one, so each
// workspace grows its arena and beam buffers to steady state before
// real traffic arrives; the first request per replica then runs the same
// allocation-free path as every later one. Two passes because first-use
// growth (arena blocks, beam pools) happens during the first
// brief — the second proves the workspace has stopped growing for this page
// shape. Warm with a max-shape page (see WarmupHTML) so one-time growth never
// shows up in per-request numbers; wider batches grow the same grow-only
// buffers the first time they occur. Call it before serving starts: it
// requires a fully idle pool and checks all replicas out while it runs.
func (p *Pool) Warm(html string) error {
	if p.Idle() != p.size {
		return fmt.Errorf("serve: Warm needs an idle pool (%d of %d idle)", p.Idle(), p.size)
	}
	checked := make([]Replica, 0, p.size)
	defer func() {
		for _, r := range checked {
			p.Put(r)
		}
	}()
	_, sents := renderPage(html)
	if len(sents) == 0 {
		return fmt.Errorf("serve: warmup page: %s", noVisibleText)
	}
	insts := []*wb.Instance{p.instance(sents)}
	for i := 0; i < p.size; i++ {
		r, ok := p.TryGet()
		if !ok {
			return fmt.Errorf("serve: pool emptied during Warm")
		}
		checked = append(checked, r)
		r.DecodeBatch(insts, r.EncodeBatch(insts))
		r.DecodeBatch(insts, r.EncodeBatch(insts))
	}
	// The passes above grew every replica's first tier; an escalation must not
	// hit a cold workspace on a later one either.
	for _, r := range p.models {
		for _, t := range r.tiers[1:] {
			t.brief(insts)
			t.brief(insts)
		}
	}
	return nil
}

// WrapOne replaces one idle replica with wrap(replica) — the seam
// cmd/wbserve's -chaos flag uses to fault-inject a live pool member for
// resilience drills. The wrapped replica inherits a closed breaker; health
// accounting is unchanged.
func (p *Pool) WrapOne(wrap func(Replica) Replica) error {
	r, ok := p.TryGet()
	if !ok {
		return fmt.Errorf("serve: WrapOne needs an idle replica")
	}
	w := wrap(r)
	p.mu.Lock()
	delete(p.state, r)
	p.state[w] = BreakerClosed
	p.mu.Unlock()
	p.idle <- w
	return nil
}

// Get checks a replica out, blocking until one is idle or ctx is done.
func (p *Pool) Get(ctx context.Context) (Replica, error) {
	select {
	case r := <-p.idle:
		return r, nil
	default:
	}
	select {
	case r := <-p.idle:
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryGet checks a replica out only if one is idle right now.
func (p *Pool) TryGet() (Replica, bool) {
	select {
	case r := <-p.idle:
		return r, true
	default:
		return nil, false
	}
}

// Put returns a replica to the pool.
func (p *Pool) Put(r Replica) { p.idle <- r }

// Eject takes a checked-out replica out of rotation (breaker open) instead
// of Putting it back: capacity shrinks by one, but the suspect replica can
// never serve another request until Readmit. Ejecting an already-open
// replica is a no-op (the stall watchdog and a late panic can race).
func (p *Pool) Eject(r Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state[r] != BreakerClosed {
		return
	}
	p.state[r] = BreakerOpen
	p.healthy--
	p.ejections++
}

// BeginProbe marks an ejected replica half-open while re-admission probes
// run against it.
func (p *Pool) BeginProbe(r Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state[r] == BreakerOpen {
		p.state[r] = BreakerHalfOpen
	}
}

// Readmit closes an ejected replica's breaker and returns it to rotation.
func (p *Pool) Readmit(r Replica) {
	p.mu.Lock()
	if p.state[r] == BreakerClosed {
		p.mu.Unlock()
		return
	}
	p.state[r] = BreakerClosed
	p.healthy++
	p.readmissions++
	p.mu.Unlock()
	p.idle <- r
}

// Healthy is the number of replicas whose breaker is closed.
func (p *Pool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// BreakerStates counts replicas per breaker state, for /metrics.
func (p *Pool) BreakerStates() (closed, open, halfOpen int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.state {
		switch s {
		case BreakerClosed:
			closed++
		case BreakerOpen:
			open++
		default:
			halfOpen++
		}
	}
	return
}

// Ejections and Readmissions are lifetime counters, for /metrics.
func (p *Pool) Ejections() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ejections
}

// Readmissions is the lifetime count of replicas returned to rotation.
func (p *Pool) Readmissions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readmissions
}

// Fold reports what folding cost the pool.
func (p *Pool) Fold() FoldStats { return p.fold }

// Size is the number of replicas the pool was built with.
func (p *Pool) Size() int { return p.size }

// Idle is the number of replicas currently checked in.
func (p *Pool) Idle() int { return len(p.idle) }
