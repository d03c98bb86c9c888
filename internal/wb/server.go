package wb

import (
	"fmt"
	"sync"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// Briefer wraps a trained model and vocabulary behind a concurrency-safe
// briefing API: the serial, heap-tape reference the serving equivalence
// suites compare internal/serve's wire bytes against (the HTTP surface
// lives there). It must not become the path it judges, so it shares with the
// batch functions only the model and the output assembly: see heapTapeBrief.
// Eval-mode forwards only read model parameters, but a mutex still serialises
// calls so the type stays safe even if a caller swaps in a model whose
// Forward keeps internal state.
type Briefer struct {
	mu        sync.Mutex
	model     Model
	vocab     *textproc.Vocab
	beamWidth int
	maxTokens int
}

// NewBriefer wraps model+vocab, decoding topics at beamWidth (at least 1);
// maxTokens > 0 truncates long documents before encoding.
//
//wbcheck:ignore deadexport -- oracle: the serial heap-tape reference the wire-equivalence suites of wb (server_test, fold_test) and serve (serve, batch, cascade, reload tests) compare against
func NewBriefer(model Model, vocab *textproc.Vocab, beamWidth, maxTokens int) *Briefer {
	return &Briefer{model: model, vocab: vocab, beamWidth: beamWidth, maxTokens: maxTokens}
}

// BriefHTML runs the full pipeline on raw markup and returns the
// hierarchical briefing. It errors when the page has no visible text.
//
//wbcheck:ignore deadexport -- oracle: see NewBriefer
func (b *Briefer) BriefHTML(html string) (*Brief, error) {
	inst := InstanceFromHTML(html, b.vocab, b.maxTokens)
	if inst.NumSents() == 0 {
		return nil, fmt.Errorf("wb: no visible text in page")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	//wbcheck:ignore lockhold -- the mutex IS the briefing serialisation point: the forward's only blocking op is the matmul kernels' bounded fork-join (tensor.parallelRows), which always completes; nothing reached from it takes this lock
	return heapTapeBrief(b.model, inst, b.vocab, b.beamWidth), nil
}

// heapTapeBrief briefs inst the slow way, as the reference every fast path
// is pinned to: the per-instance Forward on a fresh recording heap tape — no
// fused cell, no hoisted projection, no fold table, no lockstep — and the
// sort-everything heap BeamSearch.
func heapTapeBrief[T tensor.Float](m ModelOf[T], inst *Instance, v *textproc.Vocab, beamWidth int) *Brief {
	t := &ag.TapeOf[T]{}
	out := m.Forward(t, inst, Eval)
	b := extractiveBrief(out, inst, v)
	if out.Memory == nil || out.Dec == nil {
		return b
	}
	ids := out.Dec.BeamSearch(t, out.Memory, textproc.BosID, textproc.EosID, beamWidth, topicMaxLen)
	if len(ids) > 0 { // BeamSearch returns an empty, non-nil slice for a lone EOS
		b.Topic = v.Tokens(ids)
	}
	return b
}
