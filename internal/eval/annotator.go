package eval

import (
	"math/rand"
)

// Annotator simulates a human rater from the paper's human-evaluation
// protocol (§IV-A2, §IV-E): it assigns 2 (perfectly suitable), 1 (suitable)
// or 0 (unsuitable) to a generated topic by comparing it with the ground
// truth, with calibrated rater noise.
//
// The scoring rubric is an overlap oracle: exact match → 2, partial token
// overlap → 1, no overlap → 0. Noise flips a score to an adjacent level with
// probability Noise, modelling the imperfect-but-high agreement (κ > 0.83)
// the paper measures between its volunteers. Model *rankings* produced by
// the simulated panel derive entirely from real model outputs; only the
// absolute scale is oracle-defined (see DESIGN.md substitution table).
type Annotator struct {
	Noise float64
	rng   *rand.Rand
}

// newAnnotator creates a rater with its own deterministic noise stream.
func newAnnotator(noise float64, seed int64) *Annotator {
	return &Annotator{Noise: noise, rng: rand.New(rand.NewSource(seed))}
}

// Score rates a generated topic against the gold topic on the 0/1/2 scale.
func (a *Annotator) Score(gen, gold []string) int {
	score := 0
	switch {
	case ExactMatch(gen, gold):
		score = 2
	case relaxedMatch(gen, gold):
		score = 1
	}
	if a.rng.Float64() < a.Noise {
		// Flip to an adjacent level, staying in [0, 2].
		if score == 0 {
			score = 1
		} else if score == 2 {
			score = 1
		} else if a.rng.Intn(2) == 0 {
			score = 0
		} else {
			score = 2
		}
	}
	return score
}

// Panel is a group of simulated annotators (the paper trains 5 or 10
// volunteers depending on the study).
type Panel struct {
	Raters []*Annotator
}

// NewPanel creates n raters with the given noise level, seeded from base.
func NewPanel(n int, noise float64, base int64) *Panel {
	p := &Panel{}
	for i := 0; i < n; i++ {
		p.Raters = append(p.Raters, newAnnotator(noise, base+int64(i)))
	}
	return p
}

// Rate scores every (generated, gold) pair with every rater. It returns the
// ratings matrix (raters × items) and the grand mean score.
func (p *Panel) Rate(gen, gold [][]string) (ratings [][]int, mean float64) {
	if len(gen) != len(gold) {
		panic("eval: panel input length mismatch")
	}
	ratings = make([][]int, len(p.Raters))
	var sum, n float64
	for r, rater := range p.Raters {
		ratings[r] = make([]int, len(gen))
		for i := range gen {
			s := rater.Score(gen[i], gold[i])
			ratings[r][i] = s
			sum += float64(s)
			n++
		}
	}
	if n == 0 {
		return ratings, 0
	}
	return ratings, sum / n
}

// Agreement returns the panel's mean pairwise Cohen's κ on the given
// ratings.
func (p *Panel) Agreement(ratings [][]int) float64 {
	return meanPairwiseKappa(ratings)
}
