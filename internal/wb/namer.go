package wb

import (
	"math/rand"
	"sort"

	"webbrief/internal/ag"
	"webbrief/internal/corpus"
	"webbrief/internal/eval"
	"webbrief/internal/nn"
	"webbrief/internal/opt"
	"webbrief/internal/tensor"
)

// AttrNamer predicts the attribute NAME for an extracted value span — e.g.
// "price" for the span "$ 40.13". This implements the extension the paper
// leaves to future work in §V ("we plan to predict attribute names for key
// attributes"). The namer is a classification head over a model's hidden
// token representations: each span is mean-pooled and projected onto the
// label inventory.
type AttrNamer struct {
	Labels  []string
	labelID map[string]int
	Emb     *nn.Embedding // namer-owned lexical embeddings over the context
	Proj    *nn.Linear
}

// AttributeLabels returns the sorted label inventory across all corpus
// domains ("author", "price", "salary", ...).
func AttributeLabels() []string {
	seen := map[string]bool{}
	for _, d := range corpus.Domains() {
		for _, a := range d.Attrs {
			seen[a.Label] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// NewAttrNamer builds a namer over repDim-wide token representations of a
// model with the given vocabulary size. The classifier combines the model's
// contextual span representation with the namer's own lexical embedding of
// the span context — the extractor's hidden states carry "is a value"
// information but not which label word sits next to it, so the namer learns
// its own lexical view.
func NewAttrNamer(name string, labels []string, repDim, vocab int, rng *rand.Rand) *AttrNamer {
	ids := make(map[string]int, len(labels))
	for i, l := range labels {
		ids[l] = i
	}
	const embDim = 24
	return &AttrNamer{
		Labels:  labels,
		labelID: ids,
		Emb:     nn.NewEmbedding(name+".emb", vocab, embDim, rng),
		Proj:    nn.NewLinear(name+".proj", repDim+embDim, len(labels), rng),
	}
}

// Params implements nn.Layer.
func (n *AttrNamer) Params() []*ag.Param { return nn.CollectParams(n.Emb, n.Proj) }

// LabelID returns the class index of a label, or -1.
func (n *AttrNamer) LabelID(label string) int {
	if id, ok := n.labelID[label]; ok {
		return id
	}
	return -1
}

// namerContext is how many tokens of left/right context join the span when
// pooling: the naming cue ("price :", "( author )") sits immediately
// outside the value span, so the classifier must see it.
const (
	namerContextLeft  = 2
	namerContextRight = 2
)

// spanPoolMatrix builds the spans×tokens mean-pooling matrix over each span
// extended by the context window (clipped to the document).
func spanPoolMatrix(spans []eval.Span, tokens int) *tensor.Matrix {
	m := tensor.New(len(spans), tokens)
	for i, sp := range spans {
		lo := sp.Start - namerContextLeft
		if lo < 0 {
			lo = 0
		}
		hi := sp.End + namerContextRight
		if hi > tokens {
			hi = tokens
		}
		w := 1 / float64(hi-lo)
		for j := lo; j < hi; j++ {
			m.Set(i, j, w)
		}
	}
	return m
}

// Forward scores each span against the label inventory: the returned node
// is len(spans)×len(Labels). tokenH is a hidden token representation matrix
// (typically Output.TokenH from any model) and ids the instance's token
// ids, from which the namer pools its own lexical embeddings.
func (n *AttrNamer) Forward(t *ag.Tape, tokenH *ag.Node, ids []int, spans []eval.Span) *ag.Node {
	pool := t.Const(spanPoolMatrix(spans, tokenH.Rows()))
	pooledH := t.MatMul(pool, tokenH)
	pooledE := t.MatMul(pool, n.Emb.Forward(t, ids))
	return n.Proj.Forward(t, t.ConcatCols(pooledH, pooledE))
}

// Predict names the given spans from token representations and token ids.
func (n *AttrNamer) Predict(tokenH *tensor.Matrix, ids []int, spans []eval.Span) []string {
	if len(spans) == 0 {
		return nil
	}
	t := ag.NewTape()
	logits := n.Forward(t, t.Const(tokenH), ids, spans)
	out := make([]string, len(spans))
	for i := range spans {
		out[i] = n.Labels[logits.Value.ArgmaxRow(i)]
	}
	return out
}

// goldSpanLabels returns an instance's gold spans with their label class
// ids. Labels outside the inventory are skipped.
func (n *AttrNamer) goldSpanLabels(inst *Instance) ([]eval.Span, []int) {
	if inst.Page == nil {
		return nil, nil
	}
	spans := eval.SpansFromBIO(inst.Tags)
	attrs := inst.Page.Attributes()
	if len(spans) != len(attrs) {
		// Truncation can drop trailing attributes; align on the prefix.
		if len(attrs) > len(spans) {
			attrs = attrs[:len(spans)]
		} else {
			spans = spans[:len(attrs)]
		}
	}
	var keepSpans []eval.Span
	var keepIDs []int
	for i, a := range attrs {
		if id := n.LabelID(a.Label); id >= 0 {
			keepSpans = append(keepSpans, spans[i])
			keepIDs = append(keepIDs, id)
		}
	}
	return keepSpans, keepIDs
}

// TrainNamer fits the namer on gold spans over a trained model's token
// representations. The model is frozen: its forward runs per instance and
// only its values feed the namer's graph. Returns per-epoch mean losses.
func TrainNamer(n *AttrNamer, m Model, insts []*Instance, tc TrainConfig) []float64 {
	optim := opt.NewAdam(n.Params(), tc.LR)
	optim.Clip = tc.Clip
	rng := rand.New(rand.NewSource(tc.Seed))
	order := make([]int, len(insts))
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		var count int
		for _, idx := range order {
			inst := insts[idx]
			spans, labels := n.goldSpanLabels(inst)
			if len(spans) == 0 {
				continue
			}
			ft := ag.NewTape()
			tokenH := m.Forward(ft, inst, Eval).TokenH.Value
			t := ag.NewTape()
			logits := n.Forward(t, t.Const(tokenH), inst.IDs, spans)
			loss := t.CrossEntropy(logits, labels)
			sum += loss.Value.Data[0]
			count++
			t.Backward(loss)
			optim.Step()
		}
		if count == 0 {
			count = 1
		}
		losses = append(losses, sum/float64(count))
	}
	return losses
}

// EvaluateNamer returns name-classification accuracy over gold spans (%).
func EvaluateNamer(n *AttrNamer, m Model, insts []*Instance) float64 {
	var correct, total int
	for _, inst := range insts {
		spans, labels := n.goldSpanLabels(inst)
		if len(spans) == 0 {
			continue
		}
		t := ag.NewTape()
		tokenH := m.Forward(t, inst, Eval).TokenH.Value
		pred := n.Predict(tokenH, inst.IDs, spans)
		for i, want := range labels {
			if n.LabelID(pred[i]) == want {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(total)
}
