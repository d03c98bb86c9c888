package wb

import (
	"fmt"
	"sync"

	"webbrief/internal/textproc"
)

// Briefer wraps a trained model and vocabulary behind a concurrency-safe
// briefing API: the serial, heap-tape reference the serving equivalence
// suites compare internal/serve's wire bytes against (the HTTP surface
// lives there). Eval-mode forwards only read model parameters, but a mutex
// still serialises calls so the type stays safe even if a caller swaps in a
// model whose Forward keeps internal state.
type Briefer struct {
	mu        sync.Mutex
	model     Model
	vocab     *textproc.Vocab
	beamWidth int
	maxTokens int
}

// NewBriefer wraps model+vocab. beamWidth ≤ 1 decodes greedily; maxTokens
// > 0 truncates long documents before encoding.
func NewBriefer(model Model, vocab *textproc.Vocab, beamWidth, maxTokens int) *Briefer {
	return &Briefer{model: model, vocab: vocab, beamWidth: beamWidth, maxTokens: maxTokens}
}

// BriefHTML runs the full pipeline on raw markup and returns the
// hierarchical briefing. It errors when the page has no visible text.
func (b *Briefer) BriefHTML(html string) (*Brief, error) {
	inst := InstanceFromHTML(html, b.vocab, b.maxTokens)
	if inst.NumSents() == 0 {
		return nil, fmt.Errorf("wb: no visible text in page")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	//wbcheck:ignore lockhold -- the mutex IS the briefing serialisation point: MakeBrief's only blocking op is the matmul kernels' bounded fork-join (tensor.parallelRows), which always completes; nothing reached from it takes this lock
	return MakeBrief(b.model, inst, b.vocab, b.beamWidth), nil
}
