package nn

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// TestArgmaxGap is the gap table: the index ArgmaxRow picks and the distance
// to the runner-up, +Inf alone, 0 on a tie, NaN with any NaN.
func TestArgmaxGap(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		row  []float64
		best int
		gap  float64
	}{
		{[]float64{3}, 0, inf},
		{[]float64{1, 4, 2}, 1, 2},
		{[]float64{5, 5, 1}, 0, 0},
		{[]float64{-1, -3, -0.5}, 2, 0.5},
		{[]float64{1, nan, 0}, 0, nan},
		{[]float64{nan, 1}, 0, nan},
		{[]float64{inf, 1}, 0, inf},
		{[]float64{-inf, -inf}, 0, nan},
	} {
		best, gap := ArgmaxGap(tc.row)
		m := tensor.FromSlice(1, len(tc.row), tc.row)
		if best != tc.best || best != m.ArgmaxRow(0) || !sameFloat(gap, tc.gap) {
			t.Errorf("ArgmaxGap(%v) = %d, %v; want %d, %v (ArgmaxRow %d)", tc.row, best, gap, tc.best, tc.gap, m.ArgmaxRow(0))
		}
	}
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestGapsWithin pins the escalation rule: a decision is guarded when its gap
// is not above its kind's bound, so ties at the bound, exact ties and NaN
// report true, and NoGaps reports false against any finite bound.
func TestGapsWithin(t *testing.T) {
	bounds := Gaps{GapTag: 1, GapSection: 2, GapGreedy: 3, GapKeep: 4, GapFinal: 5}
	if NoGaps().Within(bounds) {
		t.Fatal("a briefing with no decisions is within the bounds")
	}
	if (Gaps{}).Within(Gaps{-1, -1, -1, -1, -1}) {
		t.Fatal("exact ties are within bounds of -1")
	}
	if !(Gaps{}).Within(Gaps{}) {
		t.Fatal("exact ties are not within zero bounds")
	}
	for k := GapKind(0); k < numGapKinds; k++ {
		for _, gap := range []float64{bounds[k], bounds[k] / 2, 0, math.NaN()} {
			g := NoGaps()
			g.Note(k, 2*bounds[k])
			g.Note(k, gap)
			if !g.Within(bounds) {
				t.Errorf("%s gap %v is not within bound %v", k, gap, bounds[k])
			}
			g.Note(k, 10) // NaN and minima stick
			if !g.Within(bounds) {
				t.Errorf("%s gap %v no longer within bound %v after a wider one", k, gap, bounds[k])
			}
		}
		g := NoGaps()
		g.Note(k, math.Nextafter(bounds[k], inf()))
		if g.Within(bounds) {
			t.Errorf("%s gap just above its bound %v is within it", k, bounds[k])
		}
	}
	var g Gaps = NoGaps()
	g.Merge(Gaps{GapKeep: 0.5, GapFinal: math.NaN(), GapTag: inf(), GapSection: inf(), GapGreedy: inf()})
	if g[GapKeep] != 0.5 || !math.IsNaN(g[GapFinal]) || g[GapTag] != inf() {
		t.Fatalf("Merge gave %v", g)
	}
}

func inf() float64 { return math.Inf(1) }

// traceKinds records the gaps noted while fn runs, per kind, in order.
func traceKinds(fn func()) map[GapKind][]float64 {
	got := map[GapKind][]float64{}
	defer TraceGaps(func(k GapKind, gap float64) { got[k] = append(got[k], gap) })()
	fn()
	return got
}

// TestGreedyStatesGaps: the first decoding pass notes one argmax gap per step
// that takes an argmax — every step but the last of maxLen, none after eos —
// equal to the step loop's top-1 − top-2 logit, and their minimum.
func TestGreedyStatesGaps(t *testing.T) {
	const bos = 0
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(70 + seed))
		d := NewAttnDecoder("d", 9, 4, 6, 5, rng)
		mem := tensor.Randn(3, 5, 1, rng)
		for _, eos := range []int{-1, 1} {
			for _, maxLen := range []int{1, 2, 4} {
				// The step loop GreedyStates replaced, with each argmax's gap.
				tp := ag.NewTape()
				s, prev := d.Cell.ZeroState(tp), bos
				var want []float64
				for i := 0; i < maxLen-1; i++ {
					var logits *ag.Node
					logits, s = d.step(tp, prev, s, tp.Const(mem))
					row := logits.Value.Row(0)
					second := math.Inf(-1)
					prev = logits.Value.ArgmaxRow(0)
					for j, v := range row {
						if j != prev {
							second = max(second, v)
						}
					}
					want = append(want, row[prev]-second)
					if prev == eos {
						break
					}
				}
				g := NoGaps()
				got := traceKinds(func() {
					tp := inferTape()
					d.GreedyStates(tp, tp.Const(mem), bos, eos, maxLen, &g)
				})
				if !slices.Equal(got[GapGreedy], want) || len(got) > 1 {
					t.Fatalf("seed %d eos %d maxLen %d: traced %v, step loop %v", seed, eos, maxLen, got, want)
				}
				wantMin := math.Inf(1)
				for _, w := range want {
					wantMin = min(wantMin, w)
				}
				if g[GapGreedy] != wantMin || g[GapTag] != inf() {
					t.Fatalf("seed %d eos %d maxLen %d: gaps %v, want greedy %v", seed, eos, maxLen, g, wantMin)
				}
			}
		}
	}
}

// referenceBeamGaps beam-searches like BeamSearch but expands every token of
// every live beam, so that the width best of all (beam, token) pairs are the
// global cut the keep boundary describes: at each depth it returns the
// width-th score less the (width+1)-th (+Inf with no (width+1)-th), and at
// the end the final ranking's margin.
func referenceBeamGaps(d *AttnDecoder, mem *tensor.Matrix, bos, eos, width, maxLen int) (keeps []float64, final float64) {
	tp := ag.NewTape()
	memN := tp.Const(mem)
	beams := []beam[float64]{{state: d.Cell.ZeroState(tp)}}
	for depth := 0; depth < maxLen; depth++ {
		var next []beam[float64]
		for _, b := range beams {
			if b.done {
				next = append(next, b)
				continue
			}
			prev := bos
			if len(b.tokens) > 0 {
				prev = b.tokens[len(b.tokens)-1]
			}
			logits, s := d.step(tp, prev, b.state, memN)
			logp := logits.Value.LogSoftmaxRows().Row(0)
			for _, j := range topK(logp, len(logp)) {
				next = append(next, beam[float64]{
					tokens:  append(slices.Clone(b.tokens), j),
					logProb: b.logProb + logp[j],
					state:   s,
					done:    j == eos,
				})
			}
		}
		sort.SliceStable(next, func(i, j int) bool { return score(next[i]) > score(next[j]) })
		keep := math.Inf(1)
		if len(next) > width {
			keep = score(next[width-1]) - score(next[width])
			next = next[:width]
		}
		keeps = append(keeps, keep)
		beams = next
		if !slices.ContainsFunc(beams, func(b beam[float64]) bool { return !b.done }) {
			break
		}
	}
	_, _, final = beamConfidence(beams)
	return keeps, final
}

// TestBeamSearchBatchGaps pins the beam's decision gaps to the all-pairs
// reference: one keep boundary per depth (the per-row top-width plus the
// prune cut exactly where the global top-width does) and one final margin,
// over decoders, widths and depths, for a batch of one and for each member
// of a batch, whose gaps do not depend on its batchmates.
func TestBeamSearchBatchGaps(t *testing.T) {
	const bos, eos, tol = 0, 1, 1e-12
	close := func(a, b float64) bool { return a == b || math.Abs(a-b) <= tol }
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(60 + seed))
		vocab := 5 + int(seed)
		d := NewAttnDecoder("d", vocab, 5, 7, 9, rng)
		mems := []*tensor.Matrix{tensor.Randn(4, 9, 1, rng), tensor.Randn(2, 9, 1, rng), tensor.Randn(6, 9, 1, rng)}
		for _, width := range []int{1, 2, 3, 5, vocab + 1} {
			for _, maxLen := range []int{1, 3, 5} {
				var alone []Gaps
				for q, mem := range mems {
					wantKeeps, wantFinal := referenceBeamGaps(d, mem, bos, eos, width, maxLen)
					gaps := []Gaps{NoGaps()}
					got := traceKinds(func() {
						tp := inferTape()
						d.BeamSearchBatch(tp, []*ag.Node{tp.Const(mem)}, bos, eos, width, maxLen, nil, gaps)
					})
					if len(got[GapKeep]) != len(wantKeeps) || len(got[GapFinal]) != 1 || len(got) != 2 {
						t.Fatalf("seed %d width %d maxLen %d inst %d: traced %v, reference keeps %v final %v",
							seed, width, maxLen, q, got, wantKeeps, wantFinal)
					}
					wantKeep := math.Inf(1)
					for i, w := range wantKeeps {
						if !close(got[GapKeep][i], w) {
							t.Fatalf("seed %d width %d maxLen %d inst %d: depth %d keep boundary %v, reference %v",
								seed, width, maxLen, q, i, got[GapKeep][i], w)
						}
						wantKeep = min(wantKeep, got[GapKeep][i])
					}
					if !close(got[GapFinal][0], wantFinal) {
						t.Fatalf("seed %d width %d maxLen %d inst %d: final gap %v, reference %v", seed, width, maxLen, q, got[GapFinal][0], wantFinal)
					}
					if g := gaps[0]; g[GapKeep] != wantKeep || g[GapFinal] != got[GapFinal][0] || g[GapTag] != inf() {
						t.Fatalf("seed %d width %d maxLen %d inst %d: gaps %v", seed, width, maxLen, q, g)
					}
					alone = append(alone, gaps[0])
				}
				tp := inferTape()
				nodes := make([]*ag.Node, len(mems))
				for i, m := range mems {
					nodes[i] = tp.Const(m)
				}
				batch := []Gaps{NoGaps(), NoGaps(), NoGaps()}
				d.BeamSearchBatch(tp, nodes, bos, eos, width, maxLen, nil, batch)
				if !slices.Equal(batch, alone) {
					t.Fatalf("seed %d width %d maxLen %d: batched gaps %v, alone %v", seed, width, maxLen, batch, alone)
				}
			}
		}
	}
}
