package nn

import (
	"math"

	"webbrief/internal/tensor"
)

// GapKind names one kind of discrete choice a briefing makes. Each is a
// comparison whose outcome a rounding error can flip only when the compared
// values lie closer than that error: its gap.
type GapKind int

// The decision kinds of a Joint-WB briefing (PAPER.md §III), in Gaps order.
const (
	GapTag     GapKind = iota // BIO tag argmax, per token: top-1 − top-2 tag logit
	GapSection                // informative-section flag, per sentence: |logit|
	GapGreedy                 // first decoding pass argmax, per step but the last: top-1 − top-2 logit
	GapKeep                   // beam keep boundary, per depth: worst kept − best left-out score
	GapFinal                  // final ranking: best − second final score (+Inf for a lone hypothesis)
	numGapKinds
)

var gapKindNames = [numGapKinds]string{"tag", "section", "greedy", "keep", "final"}

func (k GapKind) String() string { return gapKindNames[k] }

// Gaps holds, for one briefing, the thinnest gap of each kind of decision it
// took, indexed by GapKind. A kind the briefing never decided holds +Inf
// (NoGaps); a NaN anywhere in a decision's inputs makes its gap NaN. The zero
// value reads as every decision an exact tie.
type Gaps [numGapKinds]float64

// NoGaps is the gaps of a briefing that has decided nothing yet.
func NoGaps() Gaps {
	inf := math.Inf(1)
	return Gaps{inf, inf, inf, inf, inf}
}

// gapTrace, when set, sees every gap Note folds in (TraceGaps).
var gapTrace func(GapKind, float64)

// TraceGaps makes f see every decision gap noted from now on, kind and
// value, in the order the decisions are taken, until the returned func puts
// the previous tracer back. It is for comparing two tiers decision by
// decision; install a tracer only while no decode runs.
//
//wbcheck:ignore deadexport -- oracle: the tier-agreement table (internal/wb) compares every decision's gap between the float32 and float64 tiers through it
func TraceGaps(f func(GapKind, float64)) (restore func()) {
	prev := gapTrace
	gapTrace = f
	return func() { gapTrace = prev }
}

// Note folds one decision's gap into its kind's minimum; NaN sticks. A nil g
// keeps nothing (the decision is still traced).
func (g *Gaps) Note(k GapKind, gap float64) {
	if gapTrace != nil {
		gapTrace(k, gap)
	}
	if g != nil {
		g[k] = min(g[k], gap)
	}
}

// Merge folds o's minima into g, kind by kind, without tracing them again.
func (g *Gaps) Merge(o Gaps) {
	for k := range g {
		g[k] = min(g[k], o[k])
	}
}

// Within reports whether some decision's gap is not above its kind's bound
// in b, written !(gap > bound) so that a NaN gap or an exact tie reports
// true: a decision that a rounding error of b's size could have flipped.
func (g Gaps) Within(b Gaps) bool {
	for k := range g {
		if !(g[k] > b[k]) {
			return true
		}
	}
	return false
}

// ArgmaxGap returns the index of row's first largest entry — the one
// tensor's ArgmaxRow picks — and its gap to the runner-up, in float64: +Inf
// for a one-wide row, 0 for a tie, NaN when any entry is NaN.
func ArgmaxGap[T tensor.Float](row []T) (int, float64) {
	best := 0
	for j, v := range row[1:] {
		if v > row[best] {
			best = j + 1
		}
	}
	gap := math.Inf(1)
	top := float64(row[best])
	for j, v := range row {
		if j != best {
			gap = min(gap, top-float64(v))
		}
	}
	return best, gap
}
