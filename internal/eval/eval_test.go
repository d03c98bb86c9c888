package eval

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSpanPRF1Perfect(t *testing.T) {
	spans := [][]Span{{{0, 2}, {5, 7}}, {{1, 3}}}
	got := SpanPRF1(spans, spans)
	if got.Precision != 100 || got.Recall != 100 || got.F1 != 100 {
		t.Fatalf("perfect: %+v", got)
	}
}

func TestSpanPRF1Partial(t *testing.T) {
	pred := [][]Span{{{0, 2}, {4, 6}}} // one right, one wrong
	gold := [][]Span{{{0, 2}, {5, 7}}}
	got := SpanPRF1(pred, gold)
	if math.Abs(got.Precision-50) > 1e-9 || math.Abs(got.Recall-50) > 1e-9 || math.Abs(got.F1-50) > 1e-9 {
		t.Fatalf("partial: %+v", got)
	}
}

func TestSpanPRF1EmptyPred(t *testing.T) {
	got := SpanPRF1([][]Span{{}}, [][]Span{{{0, 1}}})
	if got.Precision != 0 || got.Recall != 0 || got.F1 != 0 {
		t.Fatalf("empty pred: %+v", got)
	}
}

func TestSpanPRF1BoundaryMismatchIsWrong(t *testing.T) {
	// Off-by-one boundaries must not count (strict criterion).
	got := SpanPRF1([][]Span{{{0, 3}}}, [][]Span{{{0, 2}}})
	if got.F1 != 0 {
		t.Fatalf("loose match accepted: %+v", got)
	}
}

func TestSpanPRF1DuplicatePredNotDoubleCounted(t *testing.T) {
	pred := [][]Span{{{0, 2}, {0, 2}}}
	gold := [][]Span{{{0, 2}}}
	got := SpanPRF1(pred, gold)
	if math.Abs(got.Precision-50) > 1e-9 || math.Abs(got.Recall-100) > 1e-9 {
		t.Fatalf("dup handling: %+v", got)
	}
}

func TestSpansFromBIO(t *testing.T) {
	cases := []struct {
		tags []int
		want []Span
	}{
		{[]int{0, 1, 2, 0, 1, 0}, []Span{{1, 3}, {4, 5}}},
		{[]int{1, 2, 2}, []Span{{0, 3}}},
		{[]int{0, 2, 2, 0}, []Span{{1, 3}}}, // orphan I opens a span
		{[]int{1, 1}, []Span{{0, 1}, {1, 2}}},
		{[]int{0, 0}, nil},
		{nil, nil},
	}
	for _, c := range cases {
		if got := SpansFromBIO(c.tags); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SpansFromBIO(%v) = %v, want %v", c.tags, got, c.want)
		}
	}
}

// Property: decoding BIO built from spans recovers the spans.
func TestSpansBIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := int(seed % 1000)
		if s < 0 {
			s = -s
		}
		n := (s%7 + 3) * 4
		// Build non-adjacent spans deterministically from the seed.
		var spans []Span
		pos := s % 3
		for pos+2 < n {
			w := 1 + s%2
			spans = append(spans, Span{pos, pos + w})
			pos += w + 2
		}
		tags := make([]int, n)
		for _, s := range spans {
			tags[s.Start] = 1
			for i := s.Start + 1; i < s.End; i++ {
				tags[i] = 2
			}
		}
		return reflect.DeepEqual(SpansFromBIO(tags), spans)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExactAndRelaxedMatch(t *testing.T) {
	gold := []string{"book", "shopping", "website"}
	if !ExactMatch([]string{"book", "shopping", "website"}, gold) {
		t.Fatal("exact should match")
	}
	if ExactMatch([]string{"book", "shopping"}, gold) {
		t.Fatal("length mismatch should fail EM")
	}
	if !relaxedMatch([]string{"a", "shopping", "site"}, gold) {
		t.Fatal("one shared token should pass RM")
	}
	if relaxedMatch([]string{"job", "site"}, gold) {
		t.Fatal("no overlap should fail RM")
	}
}

func TestEMImpliesRM(t *testing.T) {
	f := func(a, b, c string) bool {
		gen := []string{a, b, c}
		if !ExactMatch(gen, gen) {
			return false
		}
		return relaxedMatch(gen, gen) || len(gen) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopicScores(t *testing.T) {
	gen := [][]string{{"a", "b"}, {"a", "x"}, {"y", "z"}}
	gold := [][]string{{"a", "b"}, {"a", "b"}, {"a", "b"}}
	em, rm := TopicScores(gen, gold)
	if math.Abs(em-100.0/3) > 1e-9 {
		t.Fatalf("EM: %v", em)
	}
	if math.Abs(rm-200.0/3) > 1e-9 {
		t.Fatalf("RM: %v", rm)
	}
	if em2, rm2 := TopicScores(nil, nil); em2 != 0 || rm2 != 0 {
		t.Fatal("empty corpus")
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 1, 1, 0}); math.Abs(got-50) > 1e-9 {
		t.Fatalf("accuracy: %v", got)
	}
}

func TestCohenKappaPerfectAndChance(t *testing.T) {
	a := []int{0, 1, 2, 0, 1, 2}
	if k := cohenKappa(a, a); math.Abs(k-1) > 1e-9 {
		t.Fatalf("perfect κ: %v", k)
	}
	// Complete disagreement with balanced marginals gives κ < 0.
	b := []int{1, 2, 0, 1, 2, 0}
	if k := cohenKappa(a, b); k >= 0 {
		t.Fatalf("disagreement κ should be negative: %v", k)
	}
}

func TestCohenKappaKnownValue(t *testing.T) {
	// Worked example: po=0.7, marginals 60/40 for both raters so
	// pe=0.6·0.6+0.4·0.4=0.52, κ=(0.7-0.52)/0.48=0.375.
	a := make([]int, 100)
	b := make([]int, 100)
	for i := 0; i < 100; i++ {
		// 45 both-yes, 25 both-no, 15 a-yes/b-no, 15 a-no/b-yes.
		switch {
		case i < 45:
			a[i], b[i] = 1, 1
		case i < 70:
			a[i], b[i] = 0, 0
		case i < 85:
			a[i], b[i] = 1, 0
		default:
			a[i], b[i] = 0, 1
		}
	}
	k := cohenKappa(a, b)
	if math.Abs(k-0.375) > 1e-9 {
		t.Fatalf("κ = %v, want 0.375", k)
	}
}

func TestMeanPairwiseKappa(t *testing.T) {
	r := [][]int{{1, 2, 0}, {1, 2, 0}, {1, 2, 0}}
	if k := meanPairwiseKappa(r); math.Abs(k-1) > 1e-9 {
		t.Fatalf("identical raters: %v", k)
	}
	if k := meanPairwiseKappa([][]int{{1, 2}}); k != 1 {
		t.Fatal("single rater defined as 1")
	}
}

func TestMcNemar(t *testing.T) {
	// A right where B wrong on 30 items, B right where A wrong on 5:
	// strongly significant.
	var a, b []bool
	for i := 0; i < 30; i++ {
		a = append(a, true)
		b = append(b, false)
	}
	for i := 0; i < 5; i++ {
		a = append(a, false)
		b = append(b, true)
	}
	for i := 0; i < 50; i++ { // concordant pairs don't matter
		a = append(a, true)
		b = append(b, true)
	}
	chi2, sig := McNemar(a, b)
	if !sig {
		t.Fatalf("should be significant, χ²=%v", chi2)
	}
	// Symmetric outcomes are never significant.
	_, sig = McNemar([]bool{true, false, true, false}, []bool{false, true, false, true})
	if sig {
		t.Fatal("balanced discordance should not be significant")
	}
	// Too few discordant pairs cannot reject.
	if _, sig := McNemar([]bool{true, true}, []bool{true, true}); sig {
		t.Fatal("no discordance should not be significant")
	}
}

func TestAnnotatorOracleScores(t *testing.T) {
	a := newAnnotator(0, 1) // noiseless
	gold := []string{"book", "shopping", "website"}
	if a.Score(gold, gold) != 2 {
		t.Fatal("exact should score 2")
	}
	if a.Score([]string{"book", "site"}, gold) != 1 {
		t.Fatal("partial should score 1")
	}
	if a.Score([]string{"job", "board"}, gold) != 0 {
		t.Fatal("disjoint should score 0")
	}
}

func TestAnnotatorNoiseStaysInRange(t *testing.T) {
	a := newAnnotator(1.0, 2) // always flips
	gold := []string{"x"}
	for i := 0; i < 50; i++ {
		s := a.Score(gold, gold)
		if s < 0 || s > 2 {
			t.Fatalf("score out of range: %d", s)
		}
	}
}

func TestPanelRateAndAgreement(t *testing.T) {
	p := NewPanel(5, 0.05, 100)
	gold := [][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}}
	gen := [][]string{{"a", "b"}, {"c", "x"}, {"q", "q"}}
	ratings, mean := p.Rate(gen, gold)
	if len(ratings) != 5 || len(ratings[0]) != 3 {
		t.Fatalf("ratings shape: %d×%d", len(ratings), len(ratings[0]))
	}
	if mean <= 0 || mean >= 2 {
		t.Fatalf("mean score: %v", mean)
	}
	// Low-noise raters must agree strongly, mirroring the paper's κ > 0.83.
	if k := p.Agreement(ratings); k < 0.5 {
		t.Fatalf("panel agreement too low: %v", k)
	}
}

func TestPanelDeterministic(t *testing.T) {
	gold := [][]string{{"a"}, {"b"}}
	gen := [][]string{{"a"}, {"x"}}
	_, m1 := NewPanel(3, 0.1, 7).Rate(gen, gold)
	_, m2 := NewPanel(3, 0.1, 7).Rate(gen, gold)
	if m1 != m2 {
		t.Fatal("panel not deterministic")
	}
}

func BenchmarkSpanPRF1(b *testing.B) {
	var pred, gold [][]Span
	for d := 0; d < 100; d++ {
		var ps, gs []Span
		for i := 0; i < 8; i++ {
			ps = append(ps, Span{i * 10, i*10 + 2})
			gs = append(gs, Span{i * 10, i*10 + 2})
		}
		pred = append(pred, ps)
		gold = append(gold, gs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SpanPRF1(pred, gold)
	}
}
