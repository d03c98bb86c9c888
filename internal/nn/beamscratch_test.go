package nn

import (
	"math/rand"
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// TestBeamSearchScratchMatchesReference sweeps decoders, widths and depths
// and checks the scratch search reproduces the reference BeamSearch exactly
// — same hypotheses, same stable tie-breaking — while reusing one scratch
// across every call (the cross-request reuse pattern of a serving replica).
func TestBeamSearchScratchMatchesReference(t *testing.T) {
	const bos, eos = 0, 1
	bs := NewBeamScratch(0, 0, 0) // deliberately cold: everything grows on demand
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(40 + seed))
		vocab := 6 + int(seed)
		d := NewAttnDecoder("d", vocab, 5, 7, 9, rng)
		tp := ag.NewTape()
		mem := tp.Const(tensor.Randn(4, 9, 1, rng))
		for _, width := range []int{1, 2, 3, 5} {
			for _, maxLen := range []int{1, 2, 4, 6} {
				want := d.BeamSearch(tp, mem, bos, eos, width, maxLen)
				got, _ := d.BeamSearchScratch(tp, mem, bos, eos, width, maxLen, bs)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d width %d maxLen %d: scratch %v, reference %v",
						seed, width, maxLen, got, want)
				}
				// A nil scratch must also match.
				if again, _ := d.BeamSearchScratch(tp, mem, bos, eos, width, maxLen, nil); !reflect.DeepEqual(want, again) {
					t.Fatalf("seed %d width %d maxLen %d: nil-scratch run diverges", seed, width, maxLen)
				}
			}
		}
	}
}

// TestBeamScratchTopKMatchesSortStable property-checks the insertion-based
// top-K selection against the sort.SliceStable implementation it replaces,
// on inputs dense with ties.
func TestBeamScratchTopKMatchesSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bs := NewBeamScratch(0, 0, 0)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5)) // few distinct values → many ties
		}
		k := 1 + rng.Intn(n+2)
		want := topK(xs, k)
		got := bs.topK(xs, k)
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
