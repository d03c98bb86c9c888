package nn

import (
	"fmt"
	"math"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// BeamSearchBatch beam-searches several instances at once — a lone decode is
// a batch of one — fusing each decode depth's per-beam 1-row steps, across
// every live beam of every unfinished instance, into one R-row batched step.
// The cell and output matmuls see R rows instead of 1, which is where the
// batching win lives (one R×vocab projection per depth instead of R
// separate ones). Attention stays per-instance because each instance attends
// over its own memory, but the hidden-state projection through Att.W is one
// product over every instance's rows. A folded decoder on a no-gradient tape
// — how serving decodes — attends and projects H·Cell.Wh once per parent
// state rather than once per row: at depth 1 every row of an instance is a
// child of its BOS beam.
//
// Per instance the decode is exactly BeamSearch, without its per-candidate
// allocation: the same frontier ordering, the same top-width expansion with
// ties toward the lower token id, the same stable prune by length-normalised
// score (a selection that keeps what sort.SliceStable's order would), with
// tokens kept in the ping-pong pools of that instance's own BeamScratchOf.
// Done beams contribute no slab row and finished instances drop out of the
// batch entirely (per-row early exit), and every kernel in the step computes
// output rows independently, so an instance's tokens and confidence do not
// depend on its batchmates.
//
// memories[q] is instance q's decoder memory; scratches[q] may be nil (a
// throwaway scratch is used), as may the whole slice. The returned token
// slices are copied out and caller-owned; results[q] is nil when instance q
// decodes to nothing. confs[q] is instance q's decode Confidence, derived
// from its final frontier (beamConfidence). Unless gaps is nil, instance q's
// decisions are noted in gaps[q]: at each depth its keep boundary (GapKeep;
// per-row top-width children then the prune keep exactly the width best of
// all (beam, token) pairs, so one boundary covers both cuts), and at the end
// its final ranking (GapFinal). Width 1 is greedy decoding; a width below 1
// is a caller's bug and panics.
func (d *AttnDecoderOf[T]) BeamSearchBatch(t *ag.TapeOf[T], memories []*ag.NodeOf[T], bos, eos, width, maxLen int, scratches []*BeamScratchOf[T], gaps []Gaps) ([][]int, []Confidence) {
	if width < 1 {
		panic(fmt.Sprintf("nn: beam width %d, want at least 1", width))
	}
	nInst := len(memories)
	results := make([][]int, nInst)
	confs := make([]Confidence, nInst)
	if nInst == 0 {
		return results, confs
	}
	type instSearch struct {
		bs    *BeamScratchOf[T]
		gaps  *Gaps // nil: not reported
		beams []beam[T]
		next  []beam[T]
		pool  int
		live  bool
	}
	insts := make([]instSearch, nInst)
	for q := range insts {
		var bs *BeamScratchOf[T]
		if q < len(scratches) {
			bs = scratches[q]
		}
		if bs == nil {
			bs = NewBeamScratchOf[T](0, width, maxLen)
		}
		insts[q] = instSearch{
			bs:    bs,
			gaps:  gapsAt(gaps, q),
			beams: append(bs.cur[:0], beam[T]{state: d.Cell.ZeroState(t)}),
			next:  bs.next[:0],
			live:  true,
		}
	}
	finalize := func(q int) {
		ist := &insts[q]
		best, conf, final := beamConfidence(ist.beams)
		confs[q] = conf
		ist.gaps.Note(GapFinal, final)
		toks := best.tokens
		if len(toks) > 0 && best.done {
			toks = toks[:len(toks)-1] // strip the trailing EOS
		}
		// Persist grown frontiers, then hand back a caller-owned copy.
		ist.bs.cur, ist.bs.next = ist.beams[:0], ist.next[:0]
		if len(toks) > 0 {
			results[q] = append([]int(nil), toks...)
		}
		ist.live = false
	}
	h := d.Cell.Hidden
	// Shared, what depends only on a row's parent state — H·Att.W, the
	// attention context and H·Cell.Wh — is computed once per parent and
	// copied to every child row. Every kernel computes rows independently,
	// so a copied row is the row each child would have computed.
	shared := d.fold != nil && t.NoGrad()
	var (
		lo    = make([]int, nInst) // first slab row per instance
		ulo   = make([]int, nInst) // parent row range [ulo, uhi) per instance
		uhi   = make([]int, nInst)
		prev  = make([]int, 0, nInst)                 // previous token per slab row
		par   = make([]int, 0, nInst)                 // parent row per slab row
		hmats = make([]*tensor.MatrixOf[T], 0, nInst) // per-parent H gather sources
		cmats = make([]*tensor.MatrixOf[T], 0, nInst) // per-row C gather sources
		zeros []int
		ctxs  = make([]*ag.NodeOf[T], 0, nInst)
	)
	for depth := 0; depth < maxLen; depth++ {
		// Register one slab row per live beam, grouped per instance in
		// frontier order so instance attention blocks stay contiguous, and
		// one parent row per distinct parent state among them (per row
		// unless shared).
		prev, par, hmats, cmats = prev[:0], par[:0], hmats[:0], cmats[:0]
		for q := range insts {
			ist := &insts[q]
			if !ist.live {
				continue
			}
			lo[q], ulo[q] = len(prev), len(hmats)
			for _, b := range ist.beams {
				if b.done {
					continue
				}
				p := bos
				if len(b.tokens) > 0 {
					p = b.tokens[len(b.tokens)-1]
				}
				// At most width parents per instance: a scan finds siblings.
				u := ulo[q]
				for shared && u < len(hmats) && hmats[u] != b.state.H.Value {
					u++
				}
				if !shared || u == len(hmats) {
					u = len(hmats)
					hmats = append(hmats, b.state.H.Value)
				}
				prev = append(prev, p)
				par = append(par, u)
				cmats = append(cmats, b.state.C.Value)
			}
			uhi[q] = len(hmats)
		}
		r, nu := len(prev), len(hmats)
		if r == 0 {
			break
		}
		for len(zeros) < r {
			zeros = append(zeros, 0)
		}
		// Gather the parent states and every row's cell state into slabs,
		// attend once per parent, and take one fused decoder step (cell,
		// output projection) over all rows.
		hp := t.AllocValueUninit(nu, h)
		tensor.GatherRowsInto(hp, hmats, zeros[:nu])
		cp := t.AllocValueUninit(r, h)
		tensor.GatherRowsInto(cp, cmats, zeros[:r])
		hpN, cpN := t.Const(hp), t.Const(cp)
		hw := t.MatMul(hpN, t.Use(d.Att.W))
		ctxs = ctxs[:0]
		for q := range insts {
			if !insts[q].live || uhi[q] == ulo[q] {
				continue
			}
			sc := t.MatMulTransB(t.SliceRows(hw, ulo[q], uhi[q]), memories[q])
			att := t.SoftmaxRows(sc)
			ctxs = append(ctxs, t.MatMul(att, memories[q]))
		}
		ctx := ctxs[0]
		if len(ctxs) > 1 {
			ctx = t.ConcatRows(ctxs...)
		}
		var st StateOf[T]
		if shared {
			rec := t.MatMul(hpN, t.Use(d.Cell.Wh))
			if nu < r {
				ctx, rec = t.GatherRows(ctx, par), t.GatherRows(rec, par)
			}
			st = d.Cell.fusedCell(t, d.foldedInput(t, prev, ctx).Value, rec.Value, cp)
		} else {
			st = d.cellStep(t, prev, ctx, StateOf[T]{H: hpN, C: cpN})
		}
		logits := d.Out.ForwardCat(t, st.H, ctx)
		logpAll := t.LogSoftmaxRows(logits)
		// Per-instance frontier bookkeeping, exactly as BeamSearch.
		for q := range insts {
			ist := &insts[q]
			if !ist.live {
				continue
			}
			bs := ist.bs
			next := ist.next[:0]
			slot := 0
			row := lo[q]
			leftOut := math.Inf(-1) // best score of a child no row expanded
			for _, b := range ist.beams {
				if b.done {
					b.tokens = bs.claim(ist.pool, slot, b.tokens)
					slot++
					next = append(next, b)
					continue
				}
				logp := logpAll.Value.Row(row)
				s := StateOf[T]{
					H: t.Const(t.ViewValue(1, h, st.H.Value.Row(row))),
					C: t.Const(t.ViewValue(1, h, st.C.Value.Row(row))),
				}
				row++
				idx, out := bs.topK(logp, width)
				leftOut = max(leftOut, (b.logProb+out)/float64(len(b.tokens)+1))
				for _, j := range idx {
					toks := bs.claim(ist.pool, slot, b.tokens)
					slot++
					next = append(next, beam[T]{
						tokens:  append(toks, j),
						logProb: b.logProb + float64(logp[j]),
						state:   s,
						done:    j == eos,
					})
				}
			}
			next, keep := bs.prune(next, width, leftOut)
			ist.gaps.Note(GapKeep, keep)
			ist.beams, ist.next = next, ist.beams
			ist.pool = 1 - ist.pool
			allDone := true
			for _, b := range ist.beams {
				if !b.done {
					allDone = false
					break
				}
			}
			if allDone {
				finalize(q)
			}
		}
	}
	for q := range insts {
		if insts[q].live {
			finalize(q)
		}
	}
	return results, confs
}

// gapsAt is &gaps[q], or nil for a nil gaps.
func gapsAt(gaps []Gaps, q int) *Gaps {
	if gaps == nil {
		return nil
	}
	return &gaps[q]
}
