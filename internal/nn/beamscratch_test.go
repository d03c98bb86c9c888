package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestBeamScratchTopKMatchesSortStable property-checks the insertion-based
// top-K selection against the sort.SliceStable implementation it replaces,
// on inputs dense with ties, and its left-out value against the (k+1)-th
// entry of the full sort.
func TestBeamScratchTopKMatchesSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bs := NewBeamScratchOf[float64](0, 0, 0)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5)) // few distinct values → many ties
		}
		k := 1 + rng.Intn(n+2)
		want := topK(xs, k)
		got, out := bs.topK(xs, k)
		wantOut := math.Inf(-1)
		if all := topK(xs, n); k < n {
			wantOut = xs[all[k]]
		}
		if out != wantOut {
			t.Fatalf("trial %d (n=%d k=%d): best left out %v, want %v", trial, n, k, out, wantOut)
		}
		if len(want) != len(got) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d (n=%d k=%d): scratch %v, reference %v", trial, n, k, got, want)
			}
		}
	}
}

// pruneBeam is a candidate of the prune tests: tokens of the given length
// (none gives the empty hypothesis, which scores −Inf), the first token
// holding id so that a kept beam can be told from its equals.
func pruneBeam(id, length int, logProb float64, done bool) beam[float64] {
	toks := make([]int, length)
	if length > 0 {
		toks[0] = id
	}
	return beam[float64]{tokens: toks, logProb: logProb, done: done}
}

// sortPrune is the prune BeamScratchOf.prune replaces: a stable sort by
// score, then the first width.
func sortPrune(next []beam[float64], width int) []beam[float64] {
	slices.SortStableFunc(next, byScoreDesc[float64])
	return next[:min(width, len(next))]
}

// checkPrune runs the selection and the sort over copies of one frontier and
// requires the same beams in the same order, and the keep boundary the
// sorted frontier gives: its last kept score less the best of leftOut and
// every dropped score (+Inf with nothing dropped, NaN after a NaN).
func checkPrune(t *testing.T, bs *BeamScratchOf[float64], name string, next []beam[float64], width int, leftOut float64) {
	t.Helper()
	sorted := slices.Clone(next)
	want := sortPrune(sorted, width)
	got, keep := bs.prune(slices.Clone(next), width, leftOut)
	wantKeep := math.Inf(1)
	if len(want) > 0 {
		for _, b := range sorted[len(want):] {
			leftOut = max(leftOut, score(b))
		}
		wantKeep = score(want[len(want)-1]) - leftOut
	}
	if slices.ContainsFunc(next, func(b beam[float64]) bool { return math.IsNaN(score(b)) }) {
		wantKeep = math.NaN()
	}
	if math.Float64bits(keep) != math.Float64bits(wantKeep) && !(math.IsNaN(keep) && math.IsNaN(wantKeep)) {
		t.Fatalf("%s (n=%d width=%d left out %v): keep boundary %v, want %v", name, len(next), width, leftOut, keep, wantKeep)
	}
	same := func(a, b beam[float64]) bool {
		return slices.Equal(a.tokens, b.tokens) && a.done == b.done &&
			math.Float64bits(a.logProb) == math.Float64bits(b.logProb)
	}
	if len(got) != len(want) {
		t.Fatalf("%s (n=%d width=%d): selection kept %d beams, stable sort %d", name, len(next), width, len(got), len(want))
	}
	for k := range want {
		if !same(got[k], want[k]) {
			t.Fatalf("%s (n=%d width=%d): rank %d is %v (logProb %v) after the selection, %v (logProb %v) after the stable sort",
				name, len(next), width, k, got[k].tokens, got[k].logProb, want[k].tokens, want[k].logProb)
		}
	}
}

// TestBeamPruneMatchesSortStable is the prune's behaviour table: each
// frontier goes through the selection and through
// slices.SortStableFunc(byScoreDesc) at every width the table lists, and
// both must keep the same beams in the same order — ties in frontier order,
// ±Inf scores, empty hypotheses at −Inf, done beams among live ones, a
// frontier no wider than the beam, and NaN scores, where the selection
// hands over to the sort.
func TestBeamPruneMatchesSortStable(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		next []beam[float64]
	}{
		{"empty frontier", nil},
		{"one candidate", []beam[float64]{pruneBeam(1, 1, -0.5, false)}},
		{"all tied", []beam[float64]{
			pruneBeam(1, 2, -1, false), pruneBeam(2, 2, -1, false), pruneBeam(3, 1, -0.5, false),
			pruneBeam(4, 4, -2, true), pruneBeam(5, 2, -1, false)}},
		{"ties between distinct scores", []beam[float64]{
			pruneBeam(1, 1, -3, false), pruneBeam(2, 1, -1, false), pruneBeam(3, 1, -3, false),
			pruneBeam(4, 1, -1, false), pruneBeam(5, 1, -2, false), pruneBeam(6, 1, -1, false)}},
		{"signed zeros tie", []beam[float64]{
			pruneBeam(1, 1, math.Copysign(0, -1), false), pruneBeam(2, 1, 0, false), pruneBeam(3, 2, -1, false)}},
		{"+Inf and -Inf", []beam[float64]{
			pruneBeam(1, 1, -inf, false), pruneBeam(2, 1, inf, false), pruneBeam(3, 1, -1, false),
			pruneBeam(4, 2, inf, false), pruneBeam(5, 3, -inf, true), pruneBeam(6, 1, 0, false)}},
		{"empty hypotheses at -Inf", []beam[float64]{
			pruneBeam(1, 0, 5, false), pruneBeam(2, 1, -9, false), pruneBeam(3, 0, -5, false),
			pruneBeam(4, 1, -inf, false), pruneBeam(5, 1, -1, false)}},
		{"done beams among live ones", []beam[float64]{
			pruneBeam(1, 3, -0.3, true), pruneBeam(2, 2, -0.4, false), pruneBeam(3, 3, -0.3, false),
			pruneBeam(4, 1, -0.1, true), pruneBeam(5, 4, -0.4, true), pruneBeam(6, 2, -0.2, false)}},
		{"NaN falls back to the sort", []beam[float64]{
			pruneBeam(1, 1, -1, false), pruneBeam(2, 1, math.NaN(), false), pruneBeam(3, 1, -0.5, false),
			pruneBeam(4, 1, -2, true), pruneBeam(5, 2, math.NaN(), false), pruneBeam(6, 1, -0.1, false)}},
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{3, 72, 1500, 40200} {
		next := make([]beam[float64], n)
		for i := range next {
			next[i] = pruneBeam(i+1, 1+rng.Intn(4), -float64(rng.Intn(40))/8, rng.Intn(5) == 0)
		}
		cases = append(cases, struct {
			name string
			next []beam[float64]
		}{fmt.Sprintf("random frontier of %d", n), next})
	}
	bs := NewBeamScratchOf[float64](0, 0, 0)
	for _, c := range cases {
		for _, width := range []int{1, 2, 3, 5, 6, 8, 200, 1024} {
			checkPrune(t, bs, c.name, c.next, width, math.Inf(-1))
			checkPrune(t, bs, c.name, c.next, width, -0.75)
		}
	}
}

// TestBeamPruneProperty draws seeded random frontiers — few distinct scores,
// so ties are dense, with ±Inf, empty hypotheses, done beams and, in some
// frontiers, NaN — at random widths and the bundle widths, and holds the
// selection to the stable sort on each. A warm scratch prunes without
// allocating.
func TestBeamPruneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bs := NewBeamScratchOf[float64](0, 0, 0)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		if trial%40 == 0 {
			n = 200*201 + rng.Intn(200)
		}
		withNaN := trial%7 == 0
		next := make([]beam[float64], n)
		for i := range next {
			lp := -float64(rng.Intn(6))
			if r := rng.Intn(50); r < len(special) && (withNaN || r < 2) {
				lp = special[r]
			}
			next[i] = pruneBeam(i+1, rng.Intn(4), lp, rng.Intn(4) == 0)
		}
		for _, width := range []int{1 + rng.Intn(n+2), 1, 8, 200, 1024} {
			checkPrune(t, bs, fmt.Sprintf("trial %d", trial), next, width, -float64(rng.Intn(12))/2)
		}
	}

	next := make([]beam[float64], 72)
	for i := range next {
		next[i] = pruneBeam(i+1, 2, -float64(i%9), false)
	}
	work := make([]beam[float64], len(next))
	if allocs := testing.AllocsPerRun(50, func() {
		copy(work, next)
		bs.prune(work, 8, math.Inf(-1))
	}); allocs != 0 {
		t.Fatalf("a warm prune allocates %v times, want 0", allocs)
	}
}

// BenchmarkBeamPrune times the prune over a width × candidates grid, each
// width at the frontier capacity NewBeamScratchOf sizes for it,
// width·(width+1): the bench bundle's 8 × 72 and the paper's 200 × 40 200.
// impl=select is the heap selection, impl=sort the stable sort it replaced.
func BenchmarkBeamPrune(b *testing.B) {
	for _, g := range []struct{ width, n int }{{8, 72}, {200, 40200}} {
		for _, impl := range []string{"select", "sort"} {
			b.Run(fmt.Sprintf("width=%d/n=%d/impl=%s", g.width, g.n, impl), func(b *testing.B) {
				rng := rand.New(rand.NewSource(5))
				next := make([]beam[float64], g.n)
				for i := range next {
					next[i] = pruneBeam(i+1, 1+rng.Intn(4), -rng.ExpFloat64()*4, rng.Intn(9) == 0)
				}
				work := make([]beam[float64], g.n)
				bs := NewBeamScratchOf[float64](0, g.width, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, next)
					if impl == "select" {
						bs.prune(work, g.width, math.Inf(-1))
					} else {
						sortPrune(work, g.width)
					}
				}
			})
		}
	}
}
