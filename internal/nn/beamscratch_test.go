package nn

import (
	"math/rand"
	"testing"
)

// TestBeamScratchTopKMatchesSortStable property-checks the insertion-based
// top-K selection against the sort.SliceStable implementation it replaces,
// on inputs dense with ties.
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
