package nn

import (
	"math"
	"slices"

	"webbrief/internal/tensor"
)

// BeamScratchOf holds the reusable buffers of one instance's search inside
// BeamSearchBatch: the top-K index scratch, the two beam frontiers, the
// per-slot token backing arrays and the prune's selection scratch. A warm
// scratch makes that instance's frontier bookkeeping allocation-free apart
// from the copied-out result.
//
// Token buffers live in two pools that ping-pong between decode depths:
// candidates at depth d write pool d%2 and read the surviving beams' tokens
// from pool (d+1)%2, so no live hypothesis ever aliases a slot being
// rewritten. Done hypotheses are re-copied into the write pool each depth to
// keep that invariant. A scratch must not be shared between concurrent
// searches — a wb.BatchScratchOf keeps one per batch slot.
type BeamScratchOf[T tensor.Float] struct {
	idx    []int      // top-K selection scratch
	cur    []beam[T]  // frontier at the current depth
	next   []beam[T]  // candidate frontier being built
	pools  [2][][]int // per-slot token backing arrays
	scores []float64  // prune: each candidate's score
	kept   []int      // prune: the kept candidates' indices
	picked []beam[T]  // prune: the kept candidates in rank order
}

// NewBeamScratchOf returns a scratch presized for the given vocabulary size,
// beam width and decode depth. All buffers still grow on demand, so
// NewBeamScratchOf[T](0, 0, 0) is valid and merely warms up lazily.
func NewBeamScratchOf[T tensor.Float](vocab, width, maxLen int) *BeamScratchOf[T] {
	bs := &BeamScratchOf[T]{}
	if vocab > 0 {
		bs.idx = make([]int, 0, vocab)
	}
	if width > 0 {
		slots := width*width + width
		bs.cur = make([]beam[T], 0, slots)
		bs.next = make([]beam[T], 0, slots)
		bs.scores = make([]float64, 0, slots)
		bs.kept = make([]int, 0, width)
		bs.picked = make([]beam[T], 0, width)
		for p := range bs.pools {
			bs.pools[p] = make([][]int, slots)
			for s := range bs.pools[p] {
				bs.pools[p][s] = make([]int, 0, maxLen+1)
			}
		}
	}
	return bs
}

// topK selects the indices of the k largest values in xs in descending value
// order, ties broken toward the lower index — exactly the order
// sort.SliceStable over ascending indices produces — without sorting the
// whole vocabulary. The returned slice aliases the scratch. It also returns
// the largest value left out, the (k+1)-th: -Inf when nothing is, NaN when a
// NaN is.
func (bs *BeamScratchOf[T]) topK(xs []T, k int) ([]int, float64) {
	if k > len(xs) {
		k = len(xs)
	}
	out := math.Inf(-1)
	idx := bs.idx[:0]
	for i, v := range xs {
		if len(idx) == k {
			if !(v > xs[idx[k-1]]) { // ties keep the earlier index
				out = max(out, float64(v))
				continue
			}
			out = max(out, float64(xs[idx[k-1]]))
			idx = idx[:k-1]
		}
		// Insert before the first kept index with a strictly smaller value;
		// equal values keep their earlier position (stability).
		p := len(idx)
		for p > 0 && xs[idx[p-1]] < v {
			p--
		}
		idx = append(idx, 0)
		copy(idx[p+1:], idx[p:])
		idx[p] = i
	}
	bs.idx = idx[:0]
	return idx, out
}

// prune keeps the width best candidates of next, best score first and,
// among equal scores, in frontier order — exactly the beams, in exactly the
// order, that slices.SortStableFunc(next, byScoreDesc) followed by
// next[:width] keeps — and returns them in next's backing array. It selects
// instead of sorting: a heap of the width best so far, rooted at the worst
// of them, takes each candidate in one comparison unless it ranks ahead of
// that root, so the prune costs O(n log width) for n candidates, not a sort
// of all n. Ranks compare precomputed scores, ties by index, which is a
// total order only without NaN: a NaN score (byScoreDesc calls it equal to
// everything) falls back to the stable sort itself.
//
// It also returns the keep boundary: the worst kept score less the best score
// left out, the candidates it drops and leftOut (the best score the caller
// never made a candidate) both. +Inf when nothing is left out, NaN after a
// NaN score.
func (bs *BeamScratchOf[T]) prune(next []beam[T], width int, leftOut float64) ([]beam[T], float64) {
	scores := bs.scores[:0]
	for _, b := range next {
		s := score(b)
		if math.IsNaN(s) {
			slices.SortStableFunc(next, byScoreDesc[T])
			return next[:min(width, len(next))], math.NaN()
		}
		scores = append(scores, s)
	}
	bs.scores = scores
	// ahead reports whether candidate i ranks ahead of candidate j:
	// byScoreDesc, with equal scores in frontier order.
	ahead := func(i, j int) bool {
		switch si, sj := scores[i], scores[j]; {
		case si > sj:
			return true
		case si < sj:
			return false
		}
		return i < j
	}
	kept := bs.kept[:0]
	for i := range next {
		if len(kept) < width {
			// Sift up: the root stays the worst kept candidate.
			kept = append(kept, i)
			for c := len(kept) - 1; c > 0; {
				p := (c - 1) / 2
				if !ahead(kept[p], kept[c]) {
					break
				}
				kept[p], kept[c] = kept[c], kept[p]
				c = p
			}
			continue
		}
		if !ahead(i, kept[0]) {
			leftOut = max(leftOut, scores[i])
			continue
		}
		leftOut = max(leftOut, scores[kept[0]])
		kept[0] = i
		for p := 0; ; { // sift down
			c := 2*p + 1
			if c >= len(kept) {
				break
			}
			if c+1 < len(kept) && ahead(kept[c], kept[c+1]) {
				c++
			}
			if !ahead(kept[p], kept[c]) {
				break
			}
			kept[p], kept[c] = kept[c], kept[p]
			p = c
		}
	}
	slices.SortFunc(kept, func(i, j int) int {
		if ahead(i, j) {
			return -1
		}
		return 1 // distinct indices never tie
	})
	keep := math.Inf(1)
	if len(kept) > 0 {
		keep = scores[kept[len(kept)-1]] - leftOut
	}
	picked := bs.picked[:0]
	for _, i := range kept {
		picked = append(picked, next[i])
	}
	n := copy(next, picked)
	bs.kept, bs.picked = kept[:0], picked[:0]
	return next[:n], keep
}

// claim copies src into slot s of the given token pool and returns it with
// room for one appended token.
func (bs *BeamScratchOf[T]) claim(pool, s int, src []int) []int {
	for s >= len(bs.pools[pool]) {
		bs.pools[pool] = append(bs.pools[pool], nil)
	}
	buf := bs.pools[pool][s]
	if cap(buf) < len(src)+1 {
		buf = make([]int, 0, len(src)+8)
	}
	buf = buf[:len(src)]
	copy(buf, src)
	bs.pools[pool][s] = buf
	return buf
}

// beamConfidence picks the best hypothesis of a final frontier (first of
// the highest length-normalised score) and derives the decode confidence
// from it: the margin to the second-best score, and the best hypothesis's
// geometric-mean token probability. A lone hypothesis has no competitor, so
// its margin is +Inf. final is the same margin as a GapFinal gap: +Inf for a
// lone hypothesis too, but NaN where the margin is.
func beamConfidence[T tensor.Float](beams []beam[T]) (best beam[T], conf Confidence, final float64) {
	best = beams[0]
	secondScore := math.Inf(-1)
	for _, b := range beams[1:] {
		s := score(b)
		if s > score(best) {
			secondScore = score(best)
			best = b
		} else if s > secondScore {
			secondScore = s
		}
	}
	final = score(best) - secondScore
	if len(beams) < 2 {
		final = math.Inf(1)
	}
	conf = Confidence{Margin: final, Posterior: math.Exp(score(best))}
	if math.IsNaN(conf.Margin) {
		conf.Margin = math.Inf(1)
	}
	return best, conf, final
}
