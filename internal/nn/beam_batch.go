package nn

import (
	"slices"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// BeamSearchBatch beam-searches several instances at once — a lone decode is
// a batch of one — fusing each decode depth's per-beam 1-row steps, across
// every live beam of every unfinished instance, into one R-row batched step.
// The cell and output matmuls see R rows instead of 1, which is where the
// batching win lives (one R×vocab projection per depth instead of R
// separate ones). Attention stays per-instance because each instance attends
// over its own memory, but the R-row hidden-state projection through Att.W is
// shared.
//
// Per instance the decode is exactly BeamSearch, without its per-candidate
// allocation: the same frontier ordering, the same top-width expansion with
// ties toward the lower token id, the same stable prune by length-normalised
// score (the candidate prune reproduces sort.SliceStable ordering), with
// tokens kept in the ping-pong pools of that instance's own BeamScratchOf.
// Done beams contribute no slab row and finished instances drop out of the
// batch entirely (per-row early exit), and every kernel in the step computes
// output rows independently, so an instance's tokens and confidence do not
// depend on its batchmates.
//
// memories[q] is instance q's decoder memory; scratches[q] may be nil (a
// throwaway scratch is used), as may the whole slice. The returned token
// slices are copied out and caller-owned; results[q] is nil when instance q
// decodes to nothing. confs[q] is instance q's decode Confidence for cascade
// routing, derived from its final frontier (beamConfidence).
func (d *AttnDecoderOf[T]) BeamSearchBatch(t *ag.TapeOf[T], memories []*ag.NodeOf[T], bos, eos, width, maxLen int, scratches []*BeamScratchOf[T]) ([][]int, []Confidence) {
	nInst := len(memories)
	results := make([][]int, nInst)
	confs := make([]Confidence, nInst)
	if nInst == 0 {
		return results, confs
	}
	type instSearch struct {
		bs    *BeamScratchOf[T]
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
			beams: append(bs.cur[:0], beam[T]{state: d.Cell.ZeroState(t)}),
			next:  bs.next[:0],
			live:  true,
		}
	}
	finalize := func(q int) {
		ist := &insts[q]
		best, conf := beamConfidence(ist.beams)
		confs[q] = conf
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
	var (
		lo    = make([]int, nInst) // slab row range [lo, hi) per instance
		hi    = make([]int, nInst)
		rowOf = make([]int, 0, nInst)                 // owning instance per slab row
		prev  = make([]int, 0, nInst)                 // previous token per slab row
		hmats = make([]*tensor.MatrixOf[T], 0, nInst) // per-row H gather sources
		cmats = make([]*tensor.MatrixOf[T], 0, nInst) // per-row C gather sources
		zeros []int
		ctxs  = make([]*ag.NodeOf[T], 0, nInst)
	)
	for depth := 0; depth < maxLen; depth++ {
		// Register one slab row per live beam, grouped per instance in
		// frontier order so instance attention blocks stay contiguous.
		rowOf, prev, hmats, cmats = rowOf[:0], prev[:0], hmats[:0], cmats[:0]
		for q := range insts {
			ist := &insts[q]
			if !ist.live {
				continue
			}
			lo[q] = len(rowOf)
			for _, b := range ist.beams {
				if b.done {
					continue
				}
				p := bos
				if len(b.tokens) > 0 {
					p = b.tokens[len(b.tokens)-1]
				}
				rowOf = append(rowOf, q)
				prev = append(prev, p)
				hmats = append(hmats, b.state.H.Value)
				cmats = append(cmats, b.state.C.Value)
			}
			hi[q] = len(rowOf)
		}
		r := len(rowOf)
		if r == 0 {
			break
		}
		for len(zeros) < r {
			zeros = append(zeros, 0)
		}
		// Gather every live beam's state into R-row slabs and take one
		// fused decoder step (attention, cell, output projection).
		hp := t.AllocValueUninit(r, h)
		tensor.GatherRowsInto(hp, hmats, zeros[:r])
		cp := t.AllocValueUninit(r, h)
		tensor.GatherRowsInto(cp, cmats, zeros[:r])
		hpN, cpN := t.Const(hp), t.Const(cp)
		hw := t.MatMul(hpN, t.Use(d.Att.W))
		ctxs = ctxs[:0]
		for q := range insts {
			if !insts[q].live || hi[q] == lo[q] {
				continue
			}
			sc := t.MatMulTransB(t.SliceRows(hw, lo[q], hi[q]), memories[q])
			att := t.SoftmaxRows(sc)
			ctxs = append(ctxs, t.MatMul(att, memories[q]))
		}
		ctx := ctxs[0]
		if len(ctxs) > 1 {
			ctx = t.ConcatRows(ctxs...)
		}
		st := d.cellStep(t, prev, ctx, StateOf[T]{H: hpN, C: cpN})
		logits := d.Out.Forward(t, t.ConcatCols2(st.H, ctx))
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
				for _, j := range bs.topK(logp, width) {
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
			slices.SortStableFunc(next, byScoreDesc[T])
			if len(next) > width {
				next = next[:width]
			}
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
