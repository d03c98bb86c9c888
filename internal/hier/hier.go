// Package hier implements the multi-level extension of webpage briefing
// that §III-C sketches and §V leaves to future work: "use multiple
// extractors E to tackle key attributes at different levels, combine the
// signals from different levels". Pages generated with
// corpus.GeneratePageHier carry a HIGH-LEVEL category attribute (level 1,
// e.g. "classic novel") above the detailed attributes (level 2: title,
// price, ...); the MultiLevel extractor tags both levels with separate
// heads over a shared encoder, feeding the level-1 head's soft predictions
// into the level-2 head as the combined signal.
package hier

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/corpus"
	"webbrief/internal/eval"
	"webbrief/internal/nn"
	"webbrief/internal/opt"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// Instance is a hierarchical page in model-input form: the usual flattened
// stream plus per-level BIO tags.
type Instance struct {
	Base  *wb.Instance
	Tags1 []int // BIO for the level-1 (category) attribute
	Tags2 []int // BIO for the level-2 (detailed) attributes
}

// NewInstance encodes a hierarchical page once, through wb.NewInstance, and
// splits its tags by the level of the attribute on each tagged token's
// sentence: tokens of level-1 spans appear only in Tags1, level-2 (stored as
// level 0 on plain attributes) only in Tags2.
func NewInstance(p *corpus.Page, v *textproc.Vocab) *Instance {
	base := wb.NewInstance(p, v, 0)
	inst := &Instance{
		Base:  base,
		Tags1: make([]int, len(base.Tags)),
		Tags2: make([]int, len(base.Tags)),
	}
	for i, tag := range base.Tags {
		if tag == corpus.TagO {
			continue
		}
		if p.Sentences[base.SentOf[i]].Attr.Level == 1 {
			inst.Tags1[i] = tag
		} else {
			inst.Tags2[i] = tag
		}
	}
	return inst
}

// NewInstances encodes a batch.
func NewInstances(pages []*corpus.Page, v *textproc.Vocab) []*Instance {
	out := make([]*Instance, len(pages))
	for i, p := range pages {
		out[i] = NewInstance(p, v)
	}
	return out
}

// MultiLevel is the two-level extractor: a shared Bi-LSTM over encoder
// token representations, a level-1 head, and a level-2 head that sees the
// token representation concatenated with the level-1 head's softmax
// distribution — the cross-level signal combination of the §III-C sketch.
// Set Combine to false for the ablation with two independent heads.
type MultiLevel struct {
	Enc     wb.DocEncoder
	LSTM    *nn.BiLSTM
	Head1   *nn.Linear
	Head2   *nn.Linear
	Combine bool
	Dropout float64
	rng     *rand.Rand
}

// NewMultiLevel builds a two-level extractor over enc.
func NewMultiLevel(name string, enc wb.DocEncoder, hidden int, combine bool, seed int64) *MultiLevel {
	rng := rand.New(rand.NewSource(seed))
	bi := 2 * hidden
	head2In := bi
	if combine {
		head2In += corpus.NumTags
	}
	return &MultiLevel{
		Enc:     enc,
		LSTM:    nn.NewBiLSTM(name+".lstm", enc.Dim(), hidden, rng),
		Head1:   nn.NewLinear(name+".h1", bi, corpus.NumTags, rng),
		Head2:   nn.NewLinear(name+".h2", head2In, corpus.NumTags, rng),
		Combine: combine,
		Dropout: 0.2,
		rng:     rng,
	}
}

// Params implements nn.Layer.
func (m *MultiLevel) Params() []*ag.Param {
	return nn.CollectParams(m.Enc, m.LSTM, m.Head1, m.Head2)
}

// Forward returns the two heads' logits (each l×3).
func (m *MultiLevel) Forward(t *ag.Tape, inst *Instance, train bool) (logits1, logits2 *ag.Node) {
	tok, _ := m.Enc.EncodeDoc(t, inst.Base)
	if train && m.Dropout > 0 {
		tok = t.Dropout(tok, m.Dropout, m.rng)
	}
	h := m.LSTM.Forward(t, tok)
	logits1 = m.Head1.Forward(t, h)
	feats := h
	if m.Combine {
		feats = t.ConcatCols(h, t.SoftmaxRows(logits1))
	}
	logits2 = m.Head2.Forward(t, feats)
	return logits1, logits2
}

// Train fits the extractor with the summed two-level BIO cross-entropy and
// returns per-epoch mean losses.
func (m *MultiLevel) Train(insts []*Instance, tc wb.TrainConfig) []float64 {
	optim := opt.NewAdam(m.Params(), tc.LR)
	optim.Clip = tc.Clip
	if tc.Warmup > 0 {
		optim.Schedule = opt.WarmupDecay{WarmupSteps: tc.Warmup}
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	order := make([]int, len(insts))
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		for _, idx := range order {
			inst := insts[idx]
			t := ag.NewTape()
			l1, l2 := m.Forward(t, inst, true)
			loss := t.AddScalars(
				t.CrossEntropy(l1, inst.Tags1),
				t.CrossEntropy(l2, inst.Tags2),
			)
			sum += loss.Value.Data[0]
			t.Backward(loss)
			optim.Step()
		}
		losses = append(losses, sum/float64(len(insts)))
	}
	return losses
}

// predictTags decodes argmax BIO from logits.
func predictTags(logits *ag.Node) []int {
	tags := make([]int, logits.Rows())
	for i := range tags {
		tags[i] = logits.Value.ArgmaxRow(i)
	}
	return tags
}

// Evaluate scores both levels with strict span P/R/F1.
func (m *MultiLevel) Evaluate(insts []*Instance) (level1, level2 eval.PRF1) {
	var p1, g1, p2, g2 [][]eval.Span
	for _, inst := range insts {
		t := ag.NewTape()
		l1, l2 := m.Forward(t, inst, false)
		p1 = append(p1, eval.SpansFromBIO(predictTags(l1)))
		g1 = append(g1, eval.SpansFromBIO(inst.Tags1))
		p2 = append(p2, eval.SpansFromBIO(predictTags(l2)))
		g2 = append(g2, eval.SpansFromBIO(inst.Tags2))
	}
	return eval.SpanPRF1(p1, g1), eval.SpanPRF1(p2, g2)
}

// GenerateHierPages builds a hierarchical dataset: pages from the first
// nDomains domains, pagesPer each, via corpus.GeneratePageHier.
func GenerateHierPages(nDomains, pagesPer int, seed int64) []*corpus.Page {
	rng := rand.New(rand.NewSource(seed))
	domains := corpus.Domains()[:nDomains]
	var pages []*corpus.Page
	for i := range domains {
		for j := 0; j < pagesPer; j++ {
			pages = append(pages, corpus.GeneratePageHier(&domains[i], j, rng))
		}
	}
	return pages
}
