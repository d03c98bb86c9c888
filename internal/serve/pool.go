package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webbrief/internal/breaker"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// WarmupHTML builds a synthetic page with roughly n visible tokens (0 = 64,
// about the length of the pages the benchmark serves): the page Warm briefs,
// once per tier, before a pool takes traffic.
func WarmupHTML(n int) string {
	if n <= 0 {
		n = 64
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

// workspace makes fresh private workspaces on one model of a pool generation,
// which every replica of the generation shares, read-only, at either dtype.
func workspace[T tensor.Float](model *wb.FoldedOf[T], v *textproc.Vocab, beam int) func() tier {
	return func() tier {
		return &tierOf[T]{model: model, vocab: v, beam: beam, scratch: wb.NewBatchScratchOf[T](v, beam, 1)}
	}
}

// tier is one replica's workspace on one model of its generation. The
// workspace, unlike the model, is private: a replica serves one batch at a
// time (Pool checkout is exclusive), so a workspace is never shared between
// concurrent batches.
type tier interface {
	// extract runs one fused Eval forward; its outputs stay live on the
	// workspace tape for the decode that must follow.
	extract(insts []*wb.Instance) []*wb.Brief
	// decode beam-searches the topics from extract's outputs and returns each
	// member's decision gaps, valid until the tier's next decode.
	decode(briefs []*wb.Brief) []nn.Gaps
	// brief is extract then decode: the whole pipeline on this tier.
	brief(insts []*wb.Instance) ([]*wb.Brief, []nn.Gaps)
}

// tierOf is tier at one element type, over the generic wb batch pipeline.
type tierOf[T tensor.Float] struct {
	model   wb.ModelOf[T]
	vocab   *textproc.Vocab
	beam    int
	scratch *wb.BatchScratchOf[T]
	outs    []*wb.OutputOf[T] // extract's outputs awaiting decode
	gaps    []nn.Gaps         // decode's result, reused
}

func (t *tierOf[T]) extract(insts []*wb.Instance) []*wb.Brief {
	briefs, outs := wb.ExtractBriefBatch(t.model, insts, t.vocab, t.scratch)
	t.outs = outs
	return briefs
}

func (t *tierOf[T]) decode(briefs []*wb.Brief) []nn.Gaps {
	wb.DecodeTopicBatch(t.outs, t.vocab, t.beam, t.scratch, briefs)
	t.gaps = t.gaps[:0]
	for _, out := range t.outs {
		t.gaps = append(t.gaps, out.Gaps)
	}
	t.outs = nil
	return t.gaps
}

func (t *tierOf[T]) brief(insts []*wb.Instance) ([]*wb.Brief, []nn.Gaps) {
	briefs := t.extract(insts)
	return briefs, t.decode(briefs)
}

// escalationBounds are the decision-gap bounds every replica NewPool builds
// escalates on: the float32 student's (wb.StudentBounds). In-package tests
// swap them, all +Inf to escalate every briefing and all -Inf to escalate
// none.
var escalationBounds = wb.StudentBounds()

// modelReplica is the Replica over a pool generation's models: an ordered
// list of tiers, fastest first, and nothing else of its own. A batch encodes
// and decodes on the first tier; the members with a decision whose gap is not
// above its kind's bound (nn.Gaps.Within) — a choice the tier's rounding
// could have flipped — re-brief on the next tier under the same checkout,
// and so on down the list. An escalation replaces the whole brief
// (extraction and topic), so every answer a client sees came entirely from
// one tier. A teacher-only replica is a list of one, the cascade
// (Config.Cascade) the float32 student in front of the float64 teacher, which
// then serves the teacher's brief for every page; every tier runs the same
// wb code, instantiated per element type, and every briefing costs one Eval
// forward per tier it reaches.
type modelReplica struct {
	tiers  []tier
	bounds nn.Gaps // escalate a member whose gaps are Within these
}

// EncodeBatch implements Replica: one fused Eval forward for the whole batch
// on the first tier.
func (r *modelReplica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	return r.tiers[0].extract(insts)
}

// DecodeBatch implements Replica: one batched beam search over the outputs
// EncodeBatch retained, then one more batch per further tier for the members
// with a decision inside its bound. Every member waited the escalations, so
// each decision carries their whole time.
func (r *modelReplica) DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision {
	gaps := r.tiers[0].decode(briefs)
	decisions := make([]wb.TierDecision, len(insts))
	if len(r.tiers) == 1 {
		return decisions
	}
	pending := make([]int, len(insts)) // members the current tier briefed
	for i := range pending {
		pending[i] = i
	}
	var escalation time.Duration
	for k := 1; k < len(r.tiers); k++ {
		esc := pending[:0] // filtered in place: gaps[j] is pending[j]'s
		var escInsts []*wb.Instance
		for j, i := range pending {
			if gaps[j].Within(r.bounds) {
				esc = append(esc, i)
				escInsts = append(escInsts, insts[i])
			}
		}
		if len(esc) == 0 {
			break
		}
		t0 := time.Now()
		var tbriefs []*wb.Brief
		tbriefs, gaps = r.tiers[k].brief(escInsts)
		escalation += time.Since(t0)
		for j, i := range esc {
			*briefs[i] = *tbriefs[j]
			decisions[i].Tier = k
		}
		pending = esc
	}
	for i := range decisions {
		decisions[i].Escalation = escalation
	}
	return decisions
}

// Pool holds a fixed set of interchangeable eval-mode replicas. A request
// checks one out with Get, briefs on it exclusively, and returns it with
// Put — so up to Size batches proceed concurrently with no shared mutex,
// unlike wb.Briefer which serialises every forward pass behind one lock.
//
// The pool also tracks per-replica health, one breaker.Breaker each with
// threshold 1 and no cooldown: a replica that panics or wedges Fails (breaker
// open) instead of being Put back, shrinking capacity but never poisoning
// later requests; re-admission probing (serve.Server) moves it through
// half-open back to closed, and into rotation, once it briefs cleanly again.
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
	// gen is the generation the server serves this pool as: 1 for the boot
	// pool, stamped by swapPool on a reload's.
	gen atomic.Int64

	mu           sync.Mutex
	breakers     map[Replica]*breaker.Breaker
	ejections    int64
	readmissions int64
}

// NewPool builds one pool generation over teacher, a folded float64 model
// the pool takes for its own (wb.LoadServing's, or a wb.FoldForServing copy):
// with cfg.Cascade, the float32 student cast from its weights (wb.StudentOf)
// in front of it, and n replicas (0 → GOMAXPROCS) that all read those same
// models and tables through workspaces of their own. The pool keeps v to
// build every instance its replicas run (Pool.instance). Each workspace
// decodes at the model's own beam width (at least 1), exactly like
// wb.NewBriefer at that width, so pooled briefings are identical to the
// serial path's at wb.MaxPageTokens. A topic length below 1 leaves no first
// decoding pass to run and is refused. The student escalates on
// escalationBounds; cfg's ConfidenceThreshold routes nothing.
func NewPool(teacher *wb.FoldedOf[float64], v *textproc.Vocab, n int, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	beam := teacher.Cfg().BeamSize
	if beam < 1 {
		return nil, fmt.Errorf("serve: model beam size %d, want at least 1", beam)
	}
	if l := teacher.Cfg().TopicLen; l < 1 {
		return nil, fmt.Errorf("serve: model topic length %d, want at least 1", l)
	}
	start := time.Now()
	tiers := []func() tier{workspace(teacher, v, beam)} // fastest first
	fold := FoldStats{Bytes: teacher.Tables().Bytes()}
	if cfg.Cascade {
		student, err := wb.StudentOf(teacher)
		if err != nil {
			return nil, fmt.Errorf("serve: float32 student: %w", err)
		}
		tiers = slices.Insert(tiers, 0, workspace(student, v, beam))
		fold.Bytes += student.Tables().Bytes()
	}
	models := make([]*modelReplica, n)
	replicas := make([]Replica, n)
	for i := range replicas {
		r := &modelReplica{bounds: escalationBounds}
		for _, t := range tiers {
			r.tiers = append(r.tiers, t())
		}
		models[i], replicas[i] = r, r
	}
	p := PoolOf(replicas...)
	p.vocab, p.models, p.fold = v, models, fold
	p.fold.Built = time.Since(start)
	return p, nil
}

// FoldStats is what folding cost a pool: the bytes all tiers' fold tables
// occupy (shared by every replica), and the wall time NewPool took beyond the
// teacher it was handed (with -cascade, the student's cast and tables).
type FoldStats struct {
	Bytes int64
	Built time.Duration
}

// PoolOf wraps pre-built replicas — in tests, replicas with controlled
// latency or injected faults. It has no vocabulary, so its replicas are
// handed a placeholder instance for every page.
func PoolOf(replicas ...Replica) *Pool {
	p := &Pool{
		size:     len(replicas),
		idle:     make(chan Replica, len(replicas)),
		breakers: make(map[Replica]*breaker.Breaker, len(replicas)),
	}
	for _, r := range replicas {
		p.breakers[r] = breaker.New(1, 0, breaker.ReadmitProbes)
		p.idle <- r
	}
	return p
}

// instance turns a parsed page's sentences into the model instance this
// generation's replicas run: token ids under the pool's own vocabulary, the
// head of the page up to wb.MaxPageTokens. Building it here, per pool, is
// what keeps a reload onto a bundle with a different vocabulary correct — an
// id never meets an embedding table it was not assigned for.
func (p *Pool) instance(sents [][]string) *wb.Instance {
	if p.vocab == nil {
		return &wb.Instance{}
	}
	return wb.InstanceFromSentences(sents, p.vocab, wb.MaxPageTokens)
}

// Warm briefs html once on every tier of every replica, as a batch of one:
// the first tier through the replica, each later tier (a cascade's teacher)
// directly, as an escalation reaches it. So no tier meets its first request
// cold, and each workspace has grown its arena blocks and beam pools to what
// the page needs; the next brief of a page that size allocates exactly as
// often as every later one (TestWarmSteadyState). A longer page or a wider
// batch grows the same grow-only buffers once, the first time it occurs, and
// is steady from then on — a one-time cost that Warm does not pay ahead for
// shapes the traffic may never bring. Call it before serving starts: it
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
	}
	for _, r := range p.models {
		for _, t := range r.tiers[1:] {
			t.brief(insts)
		}
	}
	return nil
}

// WrapOne replaces one idle replica with wrap(replica) — the seam
// cmd/wbserve's -chaos flag uses to fault-inject a live pool member for
// resilience drills. The wrapped replica inherits the replica's (closed)
// breaker; health accounting is unchanged.
func (p *Pool) WrapOne(wrap func(Replica) Replica) error {
	r, ok := p.TryGet()
	if !ok {
		return fmt.Errorf("serve: WrapOne needs an idle replica")
	}
	w := wrap(r)
	p.mu.Lock()
	b := p.breakers[r]
	delete(p.breakers, r)
	p.breakers[w] = b
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

// Fail records a fault on a checked-out replica instead of Putting it back.
// On a closed breaker that is an ejection: capacity shrinks by one, and the
// suspect replica serves no other request until a Success readmits it. On a
// half-open one (a failed probe) it re-opens without counting an ejection;
// on an open one (the stall watchdog and a late panic can race) it is a
// no-op.
func (p *Pool) Fail(r Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.breakers[r].Fail(time.Now()) {
		p.ejections++
	}
}

// Success records a clean probe on an ejected replica. It reports true when
// that closed the replica's breaker — a readmission, which returns the
// replica to rotation.
func (p *Pool) Success(r Replica) (readmitted bool) {
	p.mu.Lock()
	readmitted = p.breakers[r].Success()
	if readmitted {
		p.readmissions++
	}
	p.mu.Unlock()
	if readmitted {
		p.idle <- r
	}
	return readmitted
}

// breaker returns r's breaker.
func (p *Pool) breaker(r Replica) *breaker.Breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.breakers[r]
}

// Healthy is the number of replicas whose breaker is closed.
func (p *Pool) Healthy() int {
	closed, _, _ := p.BreakerStates()
	return closed
}

// BreakerStates counts replicas per breaker state, for /metrics.
func (p *Pool) BreakerStates() (closed, open, halfOpen int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.breakers {
		switch b.State() {
		case breaker.Closed:
			closed++
		case breaker.Open:
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
