package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// AttnDecoderOf is an LSTM decoder with bilinear attention over an encoder
// memory, the generator architecture of §III-C (LSTM decode over Bi-LSTM
// encoded sentences) and of the [Bi-LSTM, LSTM] baselines. At inference it
// decodes topics by beam search (§IV-A5) at every width, width 1 included.
//
// Decode path scores (beam log-probabilities, lengths, margins) accumulate
// in float64 whatever T is: the per-step log-softmax values are T-accurate,
// but summing them along a hypothesis is a sequential reduction whose error
// the cascade's confidence thresholds should not have to absorb.
type AttnDecoderOf[T tensor.Float] struct {
	Emb  *EmbeddingOf[T] // output-vocabulary embeddings
	Cell *LSTMOf[T]      // input width = Emb.Dim()
	Att  *BilinearOf[T]  // hidden×memDim
	Out  *LinearOf[T]    // (hidden+memDim)×vocab

	// fold, when set, replaces the embedding half of the cell's input
	// projection on no-gradient tapes (WithInputTable).
	fold *decoderFoldOf[T]
}

// decoderFoldOf is a decoder's folded cell input: [emb|ctx]·Wx split at the
// constant boundary between the two.
type decoderFoldOf[T tensor.Float] struct {
	tab   *tensor.MatrixOf[T] // InputTable(Emb, Cell): vocab×4h
	wxCtx *tensor.MatrixOf[T] // rows [Emb.Dim():] of Cell.Wx, viewed
}

// WithInputTable returns a decoder sharing every parameter with d whose
// no-gradient steps gather row prev of tab — InputTable(d.Emb, d.Cell) — and
// accumulate ctx·Wx[Emb.Dim():] onto it instead of multiplying the
// concatenated [emb|ctx] through Wx: the same ascending-k sum per gate cell,
// its first Emb.Dim() terms computed once per token instead of once per
// step. Recording tapes run the returned decoder exactly like d.
func (d *AttnDecoderOf[T]) WithInputTable(tab *tensor.MatrixOf[T]) *AttnDecoderOf[T] {
	if tab.Rows != d.Emb.Vocab() || tab.Cols != 4*d.Cell.Hidden {
		panic(fmt.Sprintf("nn: decoder input table is %dx%d, want %dx%d", tab.Rows, tab.Cols, d.Emb.Vocab(), 4*d.Cell.Hidden))
	}
	folded := *d
	folded.fold = &decoderFoldOf[T]{tab: tab, wxCtx: wxRows(d.Cell, d.Emb.Dim(), d.Cell.Wx.Value.Rows)}
	return &folded
}

// NewAttnDecoder builds a decoder producing distributions over vocab tokens,
// attending over memDim-wide encoder states. The decoder uses input feeding:
// the attention context computed from the previous hidden state joins the
// token embedding as the cell input, so the hidden states (the topic
// representations Q of §III-C) genuinely depend on the attended memory.
func NewAttnDecoder(name string, vocab, embDim, hidden, memDim int, rng *rand.Rand) *AttnDecoder {
	return &AttnDecoder{
		Emb:  NewEmbedding(name+".emb", vocab, embDim, rng),
		Cell: NewLSTM(name+".cell", embDim+memDim, hidden, rng),
		Att:  NewBilinear(name+".att", hidden, memDim, rng),
		Out:  NewLinear(name+".out", hidden+memDim, vocab, rng),
	}
}

// CastAttnDecoder returns an inference-only copy of d in element type D.
func CastAttnDecoder[D, S tensor.Float](d *AttnDecoderOf[S]) *AttnDecoderOf[D] {
	return &AttnDecoderOf[D]{
		Emb:  CastEmbedding[D](d.Emb),
		Cell: CastLSTM[D](d.Cell),
		Att:  CastBilinear[D](d.Att),
		Out:  CastLinear[D](d.Out),
	}
}

// Params implements Layer.
func (d *AttnDecoderOf[T]) Params() []*ag.ParamOf[T] {
	var ps []*ag.ParamOf[T]
	ps = append(ps, d.Emb.Params()...)
	ps = append(ps, d.Cell.Params()...)
	ps = append(ps, d.Att.Params()...)
	ps = append(ps, d.Out.Params()...)
	return ps
}

// step advances one decode step: attend over memory with the previous
// hidden state, feed embedding+context into the cell, and project the new
// state joined with the context to vocabulary logits.
func (d *AttnDecoderOf[T]) step(t *ag.TapeOf[T], prev int, s StateOf[T], memory *ag.NodeOf[T]) (logits *ag.NodeOf[T], next StateOf[T]) {
	next, ctx := d.advance(t, prev, s, memory)
	return d.Out.ForwardCat(t, next.H, ctx), next
}

// advance is step without the vocabulary projection: the new state and the
// attention context it was fed.
func (d *AttnDecoderOf[T]) advance(t *ag.TapeOf[T], prev int, s StateOf[T], memory *ag.NodeOf[T]) (next StateOf[T], ctx *ag.NodeOf[T]) {
	att := d.Att.Attention(t, s.H, memory) // 1×memRows
	ctx = t.MatMul(att, memory)            // 1×memDim
	return d.cellStep(t, []int{prev}, ctx, s), ctx
}

// cellStep advances the cell one step for a slab of rows: prev[i] is row
// i's previous token, ctx its attention context (input feeding). Unfolded,
// or on a recording tape, the cell input is the concatenation [emb|ctx];
// folded, its projection is assembled directly (WithInputTable).
func (d *AttnDecoderOf[T]) cellStep(t *ag.TapeOf[T], prev []int, ctx *ag.NodeOf[T], s StateOf[T]) StateOf[T] {
	if d.fold == nil || !t.NoGrad() {
		return d.Cell.Step(t, t.ConcatCols2(d.Emb.Forward(t, prev), ctx), s)
	}
	return d.Cell.stepFrom(t, d.foldedInput(t, prev, ctx), true, s)
}

// foldedInput is a folded decoder's cell input projection [emb|ctx]·Wx for
// a slab of rows: each row's table row, with ctx·Wx[Emb.Dim():] accumulated
// onto it. No-gradient tapes only.
func (d *AttnDecoderOf[T]) foldedInput(t *ag.TapeOf[T], prev []int, ctx *ag.NodeOf[T]) *ag.NodeOf[T] {
	checkIDs("embedding", prev, d.fold.tab.Rows)
	in := t.GatherRows(t.Const(d.fold.tab), prev).Value
	return t.MatMulOnto(in, ctx, t.Const(d.fold.wxCtx))
}

// ForwardTeacherForcing decodes with teacher forcing: inputs[i] feeds step i
// and the returned len(inputs)×vocab logits are scored against the shifted
// targets by the caller. inputs normally starts with BOS.
func (d *AttnDecoderOf[T]) ForwardTeacherForcing(t *ag.TapeOf[T], memory *ag.NodeOf[T], inputs []int) *ag.NodeOf[T] {
	logits, _ := d.ForwardStates(t, memory, inputs)
	return logits
}

// ForwardStates is ForwardTeacherForcing that additionally returns the
// decoder hidden states (len(inputs)×hidden) — the topic token
// representations Q of §III-C, from which the integrated topic
// representation Q^b is built.
func (d *AttnDecoderOf[T]) ForwardStates(t *ag.TapeOf[T], memory *ag.NodeOf[T], inputs []int) (logits, states *ag.NodeOf[T]) {
	s := d.Cell.ZeroState(t)
	rows := make([]*ag.NodeOf[T], len(inputs))
	hs := make([]*ag.NodeOf[T], len(inputs))
	for i, tok := range inputs {
		rows[i], s = d.step(t, tok, s, memory)
		hs[i] = s.H
	}
	return t.ConcatRows(rows...), t.ConcatRows(hs...)
}

// GreedyStates greedily decodes up to maxLen steps, stopping after the step
// that emits eos, and returns the decoder hidden states of those steps —
// the first decoding pass of §III-C, whose tokens no caller reads. The last
// step's token decides nothing, so that step runs attention and the cell
// but no vocabulary projection. Every other step's argmax gap is noted in g
// as GapGreedy (g may be nil).
func (d *AttnDecoderOf[T]) GreedyStates(t *ag.TapeOf[T], memory *ag.NodeOf[T], bos, eos, maxLen int, g *Gaps) *ag.NodeOf[T] {
	s := d.Cell.ZeroState(t)
	prev := bos
	var hs []*ag.NodeOf[T]
	for i := 0; i < maxLen; i++ {
		var ctx *ag.NodeOf[T]
		s, ctx = d.advance(t, prev, s, memory)
		hs = append(hs, s.H)
		if i == maxLen-1 {
			break
		}
		tok, gap := ArgmaxGap(d.Out.ForwardCat(t, s.H, ctx).Value.Row(0))
		g.Note(GapGreedy, gap)
		if tok == eos {
			break
		}
		prev = tok
	}
	return t.ConcatRows(hs...)
}

// Confidence summarises how sure a topic decode was. Margin is the gap
// between the best and second-best final hypotheses' length-normalised log
// probabilities: +Inf when the final frontier holds one hypothesis (always
// at width 1) or the gap is NaN. Posterior is the geometric-mean per-token
// probability of the winning hypothesis, exp(logProb/len). Serving routes on
// decision gaps (Gaps), not on Confidence.
type Confidence struct {
	Margin    float64
	Posterior float64
}

// Score folds both signals into one [0, 1] routing scalar:
//
//	score = min(Posterior, 1 - exp(-Margin))
//
// Either a weak posterior (the model thinks its own topic is unlikely) or a
// thin margin (a near-tie with a different topic) pulls the score down, and
// a cascade routing on it escalates when it falls below its threshold. An
// infinite margin leaves the posterior in charge; a zero margin forces 0
// regardless of posterior. A NaN in either field — a decode whose logits
// went non-finite — scores 0, the least confident value: every comparison
// against NaN is false, so a NaN score would pass any `score < threshold`
// escalation test and be served.
func (c Confidence) Score() float64 {
	if math.IsNaN(c.Margin) || math.IsNaN(c.Posterior) {
		return 0
	}
	s := 1 - math.Exp(-c.Margin)
	if c.Posterior < s {
		s = c.Posterior
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// beam is one hypothesis during beam search.
type beam[T tensor.Float] struct {
	tokens  []int
	logProb float64
	state   StateOf[T]
	done    bool
}

// BeamSearch decodes with the given beam width and maximum depth, returning
// the highest-scoring completed hypothesis (length-normalised log
// probability). The paper uses width 200 and depth 4; both are parameters
// here so experiments can scale them to the corpus. It builds every
// candidate on the heap and is kept as the reference the equivalence tests
// compare BeamSearchBatch against.
func (d *AttnDecoderOf[T]) BeamSearch(t *ag.TapeOf[T], memory *ag.NodeOf[T], bos, eos, width, maxLen int) []int {
	beams := []beam[T]{{state: d.Cell.ZeroState(t)}}
	for depth := 0; depth < maxLen; depth++ {
		var next []beam[T]
		for _, b := range beams {
			if b.done {
				next = append(next, b)
				continue
			}
			prev := bos
			if len(b.tokens) > 0 {
				prev = b.tokens[len(b.tokens)-1]
			}
			logits, s := d.step(t, prev, b.state, memory)
			logp := logits.Value.LogSoftmaxRows().Row(0)
			// Expand only the top `width` continuations of this beam;
			// expanding more can never survive the global prune below.
			idx := topK(logp, width)
			for _, j := range idx {
				nb := beam[T]{
					tokens:  append(append([]int(nil), b.tokens...), j),
					logProb: b.logProb + float64(logp[j]),
					state:   s,
					done:    j == eos,
				}
				next = append(next, nb)
			}
		}
		sort.SliceStable(next, func(i, j int) bool {
			return score(next[i]) > score(next[j])
		})
		if len(next) > width {
			next = next[:width]
		}
		beams = next
		allDone := true
		for _, b := range beams {
			if !b.done {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
	}
	best := beams[0]
	for _, b := range beams[1:] {
		if score(b) > score(best) {
			best = b
		}
	}
	// Strip the trailing EOS if present.
	toks := best.tokens
	if len(toks) > 0 && best.done {
		toks = toks[:len(toks)-1]
	}
	return toks
}

// score is the length-normalised log probability of a beam.
func score[T tensor.Float](b beam[T]) float64 {
	n := len(b.tokens)
	if n == 0 {
		return math.Inf(-1)
	}
	return b.logProb / float64(n)
}

// byScoreDesc orders beams best score first. Under slices.SortStableFunc it
// yields exactly the order of BeamSearch's sort.SliceStable prune (equal and
// unordered scores keep their frontier order) without sort.SliceStable's
// reflection-built swapper.
func byScoreDesc[T tensor.Float](a, b beam[T]) int {
	switch sa, sb := score(a), score(b); {
	case sa > sb:
		return -1
	case sa < sb:
		return 1
	}
	return 0
}

// topK returns the indices of the k largest values in xs (k capped at
// len(xs)), in descending value order.
func topK[T tensor.Float](xs []T, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx[:k]
}
