package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// WarmupHTML builds a synthetic page with roughly n visible tokens (0 = 512)
// — a max-shape stand-in for Warm so every first-use buffer growth (arena
// blocks, pack panels, beam pools) happens before real traffic.
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

// Replica is one independently-forwardable briefing engine, checked out of
// a Pool for the duration of a batch. The three methods are the stages of
// the briefing pipeline, split so the serving layer can time each one and
// check the request deadline between them:
//
//	Parse:  raw HTML → model instance (DOM parse, visible text, encoding)
//	Encode: eval forward pass → attributes + section flags
//	Decode: beam-search topic generation
//
// Decode may consume state its own Encode left on the replica (a real model
// decodes from the forward Encode ran), so the two are called back to back
// for one instance under the same exclusive checkout.
type Replica interface {
	Parse(html string) (*wb.Instance, error)
	Encode(inst *wb.Instance) *wb.Brief
	Decode(inst *wb.Instance, b *wb.Brief)
}

// BatchReplica is the batched capability of a Replica: encode and decode a
// whole batch — of any size, one included — in fused B-row forward passes.
// EncodeBatch retains per-instance state on the replica that the matching
// DecodeBatch call consumes, so the two must be called back to back with the
// same instances, under the same exclusive checkout. The batch executor
// drives every replica that implements it this way and briefs member by
// member through Encode/Decode on the rest (test stubs, the fault-injection
// wrapper).
type BatchReplica interface {
	Replica
	EncodeBatch(insts []*wb.Instance) []*wb.Brief
	DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief)
}

// cascadeDecision records how one briefing moved through the confidence
// cascade on a replica: the student tier's wall time, whether the decode
// escalated, and the teacher tier's wall time when it did.
type cascadeDecision struct {
	escalated bool
	student   time.Duration
	teacher   time.Duration
}

// cascadeReporter is the optional cascade observability capability of a
// Replica: after a Decode or DecodeBatch completes, the server reads one
// decision per briefing for the tier counters and per-tier histograms. The
// report is only valid until the replica's next Encode, under the same
// exclusive checkout — the same lifetime contract as BatchReplica's
// retained encode state. Wrappers that do not forward it (e.g. the fault
// injector) simply leave the cascade unreported, never miscounted.
type cascadeReporter interface {
	CascadeReport() []cascadeDecision
}

// modelReplica adapts one Joint-WB model (a wb.FoldForServing copy, or the
// original when it cannot be folded) to the BatchReplica interface. The
// vocabulary is shared across all replicas: it is read-only after
// construction. Each
// replica owns one inference workspace per tier — a replica serves one batch
// at a time (Pool checkout is exclusive), so a workspace is never shared
// between concurrent batches. Every briefing runs one Eval forward per tier:
// the encode stage's outputs stay live on the workspace tape and the decode
// stage beam-searches from them.
//
// With a student attached (NewCascadePool), the replica runs the
// confidence-gated cascade: encode and decode execute on the float32
// student first, and decodes whose confidence score falls below threshold
// re-brief their pages on the float64 teacher under the same checkout. The
// student weights are read-only at inference, so one folded student is
// shared by every replica; the float32 workspace is per-replica like the
// float64 one. Both tiers run the same wb code, instantiated per element
// type.
type modelReplica struct {
	model     wb.Model
	vocab     *textproc.Vocab
	beam      int
	maxTokens int
	scratch   *wb.BatchScratchOf[float64]
	outs      []*wb.Output // encode-stage outputs awaiting DecodeBatch

	student   wb.ModelOf[float32] // float32 fast path, nil = teacher-only replica
	threshold float64             // escalate when confidence score < threshold
	sscratch  *wb.BatchScratchOf[float32]
	souts     []*wb.OutputOf[float32] // student encode outputs awaiting DecodeBatch
	decisions []cascadeDecision       // per-briefing cascade report, reset at EncodeBatch
}

// Parse implements Replica.
func (r *modelReplica) Parse(html string) (*wb.Instance, error) {
	inst := wb.InstanceFromHTML(html, r.vocab, r.maxTokens)
	if inst.NumSents() == 0 {
		return nil, fmt.Errorf("serve: no visible text in page")
	}
	return inst, nil
}

// Encode implements Replica as a batch of one (probes, Warm, and the inner
// replica of a fault-injection wrapper).
func (r *modelReplica) Encode(inst *wb.Instance) *wb.Brief {
	return r.EncodeBatch([]*wb.Instance{inst})[0]
}

// Decode implements Replica as a batch of one; it must follow Encode(inst).
func (r *modelReplica) Decode(inst *wb.Instance, b *wb.Brief) {
	r.DecodeBatch([]*wb.Instance{inst}, []*wb.Brief{b})
}

// teacherBriefBatch runs the full float64 pipeline on the replica's teacher
// — the cascade's escalation target, and what Warm uses to grow the teacher
// workspace on a cascade replica.
func (r *modelReplica) teacherBriefBatch(insts []*wb.Instance) []*wb.Brief {
	briefs, _ := wb.MakeBriefBatch(r.model, insts, r.vocab, r.beam, r.scratch)
	return briefs
}

// EncodeBatch implements BatchReplica: one fused Eval forward for the whole
// batch (on the student when the cascade is on). The forward outputs stay
// live on the workspace tape for the DecodeBatch call that must follow.
func (r *modelReplica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	if r.student == nil {
		briefs, outs := wb.ExtractBriefBatch(r.model, insts, r.vocab, r.scratch)
		r.outs = outs
		return briefs
	}
	t0 := time.Now()
	briefs, outs := wb.ExtractBriefBatch(r.student, insts, r.vocab, r.sscratch)
	r.souts = outs
	dur := time.Since(t0)
	r.decisions = r.decisions[:0]
	for range insts {
		// Every member waited the whole fused stage — the same per-request
		// semantics as the serve layer's stage histograms.
		r.decisions = append(r.decisions, cascadeDecision{student: dur})
	}
	return briefs
}

// DecodeBatch implements BatchReplica: one batched beam search over the
// encode outputs EncodeBatch retained. On a cascade replica the
// low-confidence subset then re-briefs on the teacher in one more batch: an
// escalation replaces the whole brief (extraction and topic), so every
// answer a client sees came entirely from one tier.
func (r *modelReplica) DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) {
	if r.student == nil {
		wb.DecodeTopicBatch(r.model, insts, r.outs, r.vocab, r.beam, r.scratch, briefs)
		r.outs = nil
		return
	}
	t0 := time.Now()
	confs := wb.DecodeTopicBatch(r.student, insts, r.souts, r.vocab, r.beam, r.sscratch, briefs)
	r.souts = nil
	sdur := time.Since(t0)
	var escIdx []int
	for i := range insts {
		r.decisions[i].student += sdur
		if confs[i].Score() < r.threshold {
			escIdx = append(escIdx, i)
		}
	}
	if len(escIdx) == 0 {
		return
	}
	escInsts := make([]*wb.Instance, len(escIdx))
	for j, i := range escIdx {
		escInsts[j] = insts[i]
	}
	t1 := time.Now()
	tbriefs := r.teacherBriefBatch(escInsts)
	tdur := time.Since(t1)
	for j, i := range escIdx {
		*briefs[i] = *tbriefs[j]
		r.decisions[i].escalated = true
		r.decisions[i].teacher = tdur
	}
}

// CascadeReport implements cascadeReporter.
func (r *modelReplica) CascadeReport() []cascadeDecision {
	if r.student == nil {
		return nil
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

	mu           sync.Mutex
	state        map[Replica]BreakerState
	healthy      int
	ejections    int64
	readmissions int64
}

// NewPool builds n replicas of m (0 → GOMAXPROCS): folded serving copies
// (wb.FoldForServing) that share one embedding matrix and one set of fold
// tables and nothing with m itself. The copies come from one snapshot
// encoding, not one per replica. beam and maxTokens configure each replica
// exactly like wb.NewBriefer, so pooled briefings are identical to the
// serial path's.
func NewPool(m *wb.JointWB, v *textproc.Vocab, n, beam, maxTokens int) (*Pool, error) {
	start := time.Now()
	reps, err := newModelReplicas(m, v, n, beam, maxTokens)
	if err != nil {
		return nil, err
	}
	return poolOfModels(reps, time.Since(start)), nil
}

// NewCascadePool builds a pool whose replicas run the float32 student fast
// path with confidence-gated escalation to the float64 teacher: the model
// is converted and folded once with wb.FoldStudent (GloVe-encoder models
// only) and the read-only student is shared across all replicas, each of
// which owns its own float32 workspace. threshold is the
// escalation cutoff on the decode confidence score: ≤ 0 never escalates,
// > 1 escalates every briefing.
func NewCascadePool(m *wb.JointWB, v *textproc.Vocab, n, beam, maxTokens int, threshold float64) (*Pool, error) {
	start := time.Now()
	reps, err := newModelReplicas(m, v, n, beam, maxTokens)
	if err != nil {
		return nil, err
	}
	student, err := wb.FoldStudent(m)
	if err != nil {
		return nil, fmt.Errorf("serve: float32 student: %w", err)
	}
	for _, r := range reps {
		r.student = student
		r.threshold = threshold
		r.sscratch = wb.NewBatchScratchOf[float32](v, beam, 1)
	}
	return poolOfModels(reps, time.Since(start)), nil
}

// newModelReplicas builds the n teacher replicas NewPool and NewCascadePool
// share. A model with no snapshot form (a transformer encoder, an ablation)
// has no fold tables either and serves as is — which only a pool of one can,
// as before.
func newModelReplicas(m *wb.JointWB, v *textproc.Vocab, n, beam, maxTokens int) ([]*modelReplica, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var models []wb.Model
	folded, err := wb.FoldForServing(m, v, n)
	switch {
	case err == nil:
		for _, f := range folded {
			models = append(models, f)
		}
	case n == 1:
		models = []wb.Model{m}
	default:
		return nil, fmt.Errorf("serve: clone replicas: %w", err)
	}
	replicas := make([]*modelReplica, n)
	for i, model := range models {
		replicas[i] = &modelReplica{
			model: model, vocab: v, beam: beam, maxTokens: maxTokens,
			scratch: wb.NewBatchScratchOf[float64](v, beam, 1),
		}
	}
	return replicas, nil
}

// FoldStats is what folding cost a pool: the bytes all tiers' fold tables
// occupy (each tier's are shared by every replica), and the wall time of
// building the pool's models — the serving copies, the float32 conversion
// and the tables. Bytes is zero for a pool that serves unfolded.
type FoldStats struct {
	Bytes int64
	Built time.Duration
}

// poolOfModels is PoolOf over model replicas that took built to construct,
// recording what the fold tables they share hold.
func poolOfModels(reps []*modelReplica, built time.Duration) *Pool {
	replicas := make([]Replica, len(reps))
	for i, r := range reps {
		replicas[i] = r
	}
	p := PoolOf(replicas...)
	p.fold.Built = built
	if f, ok := reps[0].model.(*wb.FoldedOf[float64]); ok {
		p.fold.Bytes += f.Tables().Bytes()
	}
	if f, ok := reps[0].student.(*wb.FoldedOf[float32]); ok {
		p.fold.Bytes += f.Tables().Bytes()
	}
	return p
}

// PoolOf wraps pre-built replicas — the seam for serving a non-GloVe model
// or, in tests, replicas with controlled latency or injected faults.
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

// Warm briefs html twice on every replica, as a batch of one, so each
// workspace grows its arena, pack and beam buffers to steady state before
// real traffic arrives; the first request per replica then runs the same
// allocation-free path as every later one. Two passes because first-use
// growth (arena blocks, pack panels, beam pools) happens during the first
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
	for i := 0; i < p.size; i++ {
		r, ok := p.TryGet()
		if !ok {
			return fmt.Errorf("serve: pool emptied during Warm")
		}
		checked = append(checked, r)
		inst, err := r.Parse(html)
		if err != nil {
			return fmt.Errorf("serve: warmup page: %w", err)
		}
		r.Decode(inst, r.Encode(inst))
		r.Decode(inst, r.Encode(inst))
		if mr, ok := r.(*modelReplica); ok && mr.student != nil {
			// The passes above grew the student tier; the escalation
			// target must not hit a cold teacher workspace either.
			mr.teacherBriefBatch([]*wb.Instance{inst})
			mr.teacherBriefBatch([]*wb.Instance{inst})
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
