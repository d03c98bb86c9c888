// Package eval implements the paper's evaluation protocol (§IV-A4):
// precision/recall/F1 over extracted attribute spans, exact-match (EM) and
// relaxed-match (RM) scoring for generated topics, Cohen's κ inter-annotator
// agreement, McNemar's significance test, and the simulated-annotator human
// evaluation used to regenerate Table X and the dataset-quality study.
package eval

import (
	"math"
)

// Span is a half-open token range [Start, End).
type Span struct {
	Start, End int
}

// PRF1 holds precision, recall and F1 as percentages.
type PRF1 struct {
	Precision, Recall, F1 float64
}

// SpanPRF1 scores predicted spans against gold spans over a corpus:
// a predicted span counts as correct only if it matches a gold span exactly,
// the standard strict criterion for attribute extraction.
func SpanPRF1(pred, gold [][]Span) PRF1 {
	if len(pred) != len(gold) {
		panic("eval: pred/gold document count mismatch")
	}
	var tp, np, ng int
	for d := range pred {
		np += len(pred[d])
		ng += len(gold[d])
		goldSet := make(map[Span]int, len(gold[d]))
		for _, g := range gold[d] {
			goldSet[g]++
		}
		for _, p := range pred[d] {
			if goldSet[p] > 0 {
				goldSet[p]--
				tp++
			}
		}
	}
	var prec, rec float64
	if np > 0 {
		prec = float64(tp) / float64(np)
	}
	if ng > 0 {
		rec = float64(tp) / float64(ng)
	}
	var f1 float64
	if prec+rec > 0 {
		f1 = 2 * prec * rec / (prec + rec)
	}
	return PRF1{Precision: prec * 100, Recall: rec * 100, F1: f1 * 100}
}

// SpansEqual reports whether two span lists are identical as multisets —
// the "fully correct extraction" criterion for paired significance tests.
// Comparing span sets directly avoids the float round trip of checking
// F1 == 100.
func SpansEqual(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[Span]int, len(a))
	for _, s := range a {
		counts[s]++
	}
	for _, s := range b {
		counts[s]--
		if counts[s] < 0 {
			return false
		}
	}
	return true
}

// SpansFromBIO decodes a BIO tag sequence (0=O, 1=B, 2=I) into spans. An I
// without a preceding B opens a new span, the conventional lenient decode.
func SpansFromBIO(tags []int) []Span {
	var spans []Span
	start := -1
	for i, tag := range tags {
		switch tag {
		case 1: // B
			if start >= 0 {
				spans = append(spans, Span{start, i})
			}
			start = i
		case 2: // I
			if start < 0 {
				start = i
			}
		default: // O
			if start >= 0 {
				spans = append(spans, Span{start, i})
				start = -1
			}
		}
	}
	if start >= 0 {
		spans = append(spans, Span{start, len(tags)})
	}
	return spans
}

// ExactMatch reports whether the generated token sequence equals the gold
// sequence exactly (§IV-A4 EM).
func ExactMatch(gen, gold []string) bool {
	if len(gen) != len(gold) {
		return false
	}
	for i := range gen {
		if gen[i] != gold[i] {
			return false
		}
	}
	return true
}

// relaxedMatch reports whether the generated sequence contains at least one
// gold token (§IV-A4 RM).
func relaxedMatch(gen, gold []string) bool {
	goldSet := make(map[string]bool, len(gold))
	for _, g := range gold {
		goldSet[g] = true
	}
	for _, tok := range gen {
		if goldSet[tok] {
			return true
		}
	}
	return false
}

// TopicScores aggregates EM and RM percentages over a corpus of generated /
// gold topic pairs.
func TopicScores(gen, gold [][]string) (em, rm float64) {
	if len(gen) != len(gold) {
		panic("eval: gen/gold count mismatch")
	}
	if len(gen) == 0 {
		return 0, 0
	}
	var nEM, nRM int
	for i := range gen {
		if ExactMatch(gen[i], gold[i]) {
			nEM++
		}
		if relaxedMatch(gen[i], gold[i]) {
			nRM++
		}
	}
	n := float64(len(gen))
	return 100 * float64(nEM) / n, 100 * float64(nRM) / n
}

// Accuracy returns the fraction (as %) of positions where pred equals gold.
func Accuracy(pred, gold []int) float64 {
	if len(pred) != len(gold) {
		panic("eval: accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == gold[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(pred))
}

// cohenKappa computes inter-annotator agreement between two raters who
// assigned categorical labels to the same items (§IV-A2 uses κ to validate
// dataset quality; §IV-E for human evaluation).
func cohenKappa(a, b []int) float64 {
	if len(a) != len(b) {
		panic("eval: kappa length mismatch")
	}
	n := len(a)
	if n == 0 {
		return 0
	}
	cats := map[int]bool{}
	for i := range a {
		cats[a[i]] = true
		cats[b[i]] = true
	}
	agree := 0
	countA := map[int]int{}
	countB := map[int]int{}
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
		countA[a[i]]++
		countB[b[i]]++
	}
	po := float64(agree) / float64(n)
	var pe float64
	for c := range cats {
		pe += (float64(countA[c]) / float64(n)) * (float64(countB[c]) / float64(n))
	}
	if pe >= 1 {
		return 1
	}
	return (po - pe) / (1 - pe)
}

// meanPairwiseKappa averages Cohen's κ over all rater pairs, the multi-rater
// summary the paper reports ("κ > 0.93 for all aspects").
func meanPairwiseKappa(ratings [][]int) float64 {
	if len(ratings) < 2 {
		return 1
	}
	var sum float64
	var pairs int
	for i := 0; i < len(ratings); i++ {
		for j := i + 1; j < len(ratings); j++ {
			sum += cohenKappa(ratings[i], ratings[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// McNemar runs McNemar's test on paired binary outcomes of two systems over
// the same items (correctA[i], correctB[i]). It returns the χ² statistic
// (with continuity correction) and whether p < 0.05, the significance
// criterion of §IV-A4. With fewer than 2 discordant pairs the test cannot
// reject and significance is false.
func McNemar(correctA, correctB []bool) (chi2 float64, significant bool) {
	if len(correctA) != len(correctB) {
		panic("eval: McNemar length mismatch")
	}
	var b, c float64 // A right & B wrong; A wrong & B right
	for i := range correctA {
		switch {
		case correctA[i] && !correctB[i]:
			b++
		case !correctA[i] && correctB[i]:
			c++
		}
	}
	if b+c < 2 {
		return 0, false
	}
	d := math.Abs(b-c) - 1 // continuity correction
	if d < 0 {
		d = 0
	}
	chi2 = d * d / (b + c)
	// χ²(1df) critical value at p=0.05 is 3.841.
	return chi2, chi2 > 3.841
}
