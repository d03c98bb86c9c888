package nn

import (
	"math"

	"webbrief/internal/tensor"
)

// BeamScratchOf holds the reusable buffers of one instance's search inside
// BeamSearchBatch: the top-K index scratch, the two beam frontiers, and the
// per-slot token backing arrays. A warm scratch makes that instance's
// frontier bookkeeping allocation-free apart from the copied-out result.
//
// Token buffers live in two pools that ping-pong between decode depths:
// candidates at depth d write pool d%2 and read the surviving beams' tokens
// from pool (d+1)%2, so no live hypothesis ever aliases a slot being
// rewritten. Done hypotheses are re-copied into the write pool each depth to
// keep that invariant. A scratch must not be shared between concurrent
// searches — a wb.BatchScratchOf keeps one per batch slot.
type BeamScratchOf[T tensor.Float] struct {
	idx   []int      // top-K selection scratch
	cur   []beam[T]  // frontier at the current depth
	next  []beam[T]  // candidate frontier being built
	pools [2][][]int // per-slot token backing arrays
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
// whole vocabulary. The returned slice aliases the scratch.
func (bs *BeamScratchOf[T]) topK(xs []T, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	idx := bs.idx[:0]
	for i, v := range xs {
		if len(idx) == k {
			if !(v > xs[idx[k-1]]) { // ties keep the earlier index
				continue
			}
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
	return idx
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
// the highest length-normalised score) and derives the cascade confidence
// from it: the margin to the second-best score, and the best hypothesis's
// geometric-mean token probability. A lone hypothesis has no competitor, so
// its margin is +Inf.
func beamConfidence[T tensor.Float](beams []beam[T]) (best beam[T], conf Confidence) {
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
	conf = Confidence{Margin: score(best) - secondScore, Posterior: math.Exp(score(best))}
	if len(beams) < 2 || math.IsNaN(conf.Margin) {
		conf.Margin = math.Inf(1)
	}
	return best, conf
}
