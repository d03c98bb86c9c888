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
// supports greedy and beam-search decoding (§IV-A5 uses beam search).
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
	att := d.Att.Attention(t, s.H, memory) // 1×memRows
	ctx := t.MatMul(att, memory)           // 1×memDim
	next = d.cellStep(t, []int{prev}, ctx, s)
	logits = d.Out.Forward(t, t.ConcatCols2(next.H, ctx))
	return logits, next
}

// cellStep advances the cell one step for a slab of rows: prev[i] is row
// i's previous token, ctx its attention context (input feeding). Unfolded,
// or on a recording tape, the cell input is the concatenation [emb|ctx];
// folded, its projection is assembled directly (WithInputTable).
func (d *AttnDecoderOf[T]) cellStep(t *ag.TapeOf[T], prev []int, ctx *ag.NodeOf[T], s StateOf[T]) StateOf[T] {
	if d.fold == nil || !t.NoGrad() {
		return d.Cell.Step(t, t.ConcatCols2(d.Emb.Forward(t, prev), ctx), s)
	}
	checkIDs("embedding", prev, d.fold.tab.Rows)
	in := t.GatherRows(t.Const(d.fold.tab), prev).Value
	return d.Cell.stepFrom(t, t.MatMulOnto(in, ctx, t.Const(d.fold.wxCtx)), true, s)
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

// GreedyWithStates greedily decodes up to maxLen tokens and returns both the
// tokens (EOS excluded) and the decoder hidden states for the emitted steps.
// Models use it at inference where no gold topic is available to force.
func (d *AttnDecoderOf[T]) GreedyWithStates(t *ag.TapeOf[T], memory *ag.NodeOf[T], bos, eos, maxLen int) ([]int, *ag.NodeOf[T]) {
	s := d.Cell.ZeroState(t)
	prev := bos
	var out []int
	var hs []*ag.NodeOf[T]
	for i := 0; i < maxLen; i++ {
		var logits *ag.NodeOf[T]
		logits, s = d.step(t, prev, s, memory)
		hs = append(hs, s.H)
		tok := logits.Value.ArgmaxRow(0)
		if tok == eos {
			break
		}
		out = append(out, tok)
		prev = tok
	}
	return out, t.ConcatRows(hs...)
}

// Confidence summarises how sure a decode was — the cascade routing signal.
// Margin is the top-1/top-2 separation: for beam search the gap between the
// best and second-best finished hypotheses' length-normalised log
// probabilities, for greedy decoding the worst per-step gap between the
// chosen token's log probability and the runner-up's. Posterior is the
// geometric-mean per-token probability of the winning hypothesis,
// exp(logProb/len). Both are +Inf/1 respectively when the decode had no
// competition (single beam, empty output).
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
// the serve-layer cascade escalates when it falls below the configured
// threshold. An infinite margin leaves the posterior in charge; a zero
// margin forces 0 regardless of posterior. A NaN in either field — a decode
// whose logits went non-finite — scores 0, the least confident value: every
// comparison against NaN is false, so a NaN score would pass any
// `score < threshold` escalation test and be served.
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

// sureConfidence is the no-competition value: nothing decoded or nothing to
// compare against, so the cascade has no reason to escalate.
func sureConfidence() Confidence { return Confidence{Margin: math.Inf(1), Posterior: 1} }

// Greedy decodes up to maxLen tokens, stopping at eos, and reports decode
// confidence: Margin is the worst per-step top-1/top-2 log-probability gap
// and Posterior the geometric-mean probability of the chosen path
// (EOS-emitting step included — a barely-chosen EOS is a real risk signal).
// The returned slice excludes BOS and EOS.
func (d *AttnDecoderOf[T]) Greedy(t *ag.TapeOf[T], memory *ag.NodeOf[T], bos, eos, maxLen int) ([]int, Confidence) {
	s := d.Cell.ZeroState(t)
	prev := bos
	var out []int
	var logpSum float64
	conf := sureConfidence()
	steps := 0
	for i := 0; i < maxLen; i++ {
		var logits *ag.NodeOf[T]
		logits, s = d.step(t, prev, s, memory)
		logp := t.LogSoftmaxRows(logits).Value.Row(0)
		tok, margin := top2Gap(logp)
		steps++
		logpSum += float64(logp[tok])
		if margin < conf.Margin {
			conf.Margin = margin
		}
		if tok == eos {
			break
		}
		out = append(out, tok)
		prev = tok
	}
	if steps > 0 {
		conf.Posterior = math.Exp(logpSum / float64(steps))
	}
	return out, conf
}

// top2Gap returns the argmax of row and the log-probability gap to the
// runner-up (+Inf for a 1-wide row).
func top2Gap[T tensor.Float](row []T) (int, float64) {
	best := 0
	for j, v := range row[1:] {
		if v > row[best] {
			best = j + 1
		}
	}
	second := math.Inf(-1)
	for j, v := range row {
		if j != best && float64(v) > second {
			second = float64(v)
		}
	}
	return best, float64(row[best]) - second
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
