package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestVocabSpecialsFixed(t *testing.T) {
	v := NewVocab()
	if v.ID(PadToken) != PadID || v.ID(UnkToken) != UnkID || v.ID(ClsToken) != ClsID {
		t.Fatal("special ids not fixed")
	}
	if v.ID(DigitToken) != DigitID || v.ID(MaskToken) != MaskID {
		t.Fatal("special ids not fixed")
	}
	if v.Size() != numSpecials {
		t.Fatalf("fresh vocab size %d", v.Size())
	}
}

func TestVocabAddIdempotent(t *testing.T) {
	v := NewVocab()
	a := v.Add("hello")
	b := v.Add("hello")
	if a != b {
		t.Fatal("Add not idempotent")
	}
	if v.Token(a) != "hello" {
		t.Fatal("Token roundtrip")
	}
	if v.ID("missing") != UnkID {
		t.Fatal("unknown should map to UNK")
	}
}

func TestVocabIDsTokensRoundtrip(t *testing.T) {
	v := NewVocab()
	v.Add("a")
	v.Add("b")
	toks := []string{"a", "b", "a"}
	ids := v.IDs(toks)
	if !reflect.DeepEqual(v.Tokens(ids), toks) {
		t.Fatal("roundtrip failed")
	}
}

func TestBuildVocabFrequencyOrderDeterministic(t *testing.T) {
	counts := map[string]int{"common": 10, "rare": 1, "mid": 5, "tie1": 5}
	v := BuildVocab(counts, 2)
	if v.Has("rare") {
		t.Fatal("minCount not applied")
	}
	if v.ID("common") != numSpecials {
		t.Fatalf("most frequent should come first, got id %d", v.ID("common"))
	}
	// Ties broken lexicographically: "mid" < "tie1".
	if v.ID("mid") > v.ID("tie1") {
		t.Fatal("tie-break not lexicographic")
	}
	v2 := BuildVocab(counts, 2)
	if v.ID("tie1") != v2.ID("tie1") {
		t.Fatal("BuildVocab not deterministic")
	}
}

func TestNormalizeLowercaseAndDigits(t *testing.T) {
	got := Normalize("Visit BookShop: $40.13 today!")
	want := []string{"visit", "bookshop", ":", "$", DigitToken, ".", DigitToken, "today", "!"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalize: %v want %v", got, want)
	}
}

func TestNormalizeLetterDigitBoundary(t *testing.T) {
	got := Normalize("room b2b 42nd")
	want := []string{"room", "b", DigitToken, "b", DigitToken, "nd"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalize: %v", got)
	}
}

func TestNormalizeEmptyAndWhitespace(t *testing.T) {
	if got := Normalize("   "); len(got) != 0 {
		t.Fatalf("whitespace: %v", got)
	}
	if got := Normalize(""); len(got) != 0 {
		t.Fatalf("empty: %v", got)
	}
}

func TestNormalizeNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Normalize(s)
		for _, tok := range toks {
			if tok == "" {
				return false
			}
			if tok != DigitToken && tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSentences(t *testing.T) {
	toks := []string{"hello", "world", ".", "next", "one", "!", "trailing"}
	sents := SplitSentences(toks)
	if len(sents) != 3 {
		t.Fatalf("sentences: %v", sents)
	}
	if sents[0][2] != "." || sents[1][2] != "!" {
		t.Fatal("punctuation should stay with its sentence")
	}
	if len(sents[2]) != 1 || sents[2][0] != "trailing" {
		t.Fatal("trailing fragment lost")
	}
}

func TestNormalizeDocument(t *testing.T) {
	sents := NormalizeDocument([]string{"Home | Books", "Price: $5. In stock."})
	if len(sents) != 3 {
		t.Fatalf("got %d sentences: %v", len(sents), sents)
	}
}

func buildTestWP() *WordPiece {
	counts := map[string]int{
		"book": 50, "books": 30, "booking": 20, "shop": 40, "shopping": 25,
		"deep": 15, "learning": 15, "the": 100, "a": 80,
	}
	return LearnWordPiece(counts, 200)
}

func TestWordPieceInVocabWordsSingle(t *testing.T) {
	wp := buildTestWP()
	for _, w := range []string{"book", "shop", "the"} {
		got := wp.TokenizeWord(w)
		if len(got) != 1 || got[0] != w {
			t.Errorf("TokenizeWord(%q) = %v, want single piece", w, got)
		}
	}
}

func TestWordPieceSubwordSplit(t *testing.T) {
	wp := buildTestWP()
	// "bookshop" is unseen but decomposable into learned pieces.
	pieces := wp.TokenizeWord("bookshop")
	if pieces[0] == UnkToken {
		t.Fatalf("decomposable word went to UNK: %v", pieces)
	}
	if Detokenize(pieces) != "bookshop" {
		t.Fatalf("detokenize: %v -> %q", pieces, Detokenize(pieces))
	}
	// Continuation pieces must carry the ## prefix.
	for _, p := range pieces[1:] {
		if !strings.HasPrefix(p, ContinuationPrefix) {
			t.Fatalf("continuation piece %q lacks prefix", p)
		}
	}
}

func TestWordPieceUnknownCharacters(t *testing.T) {
	wp := buildTestWP()
	got := wp.TokenizeWord("日本語")
	if len(got) != 1 || got[0] != UnkToken {
		t.Fatalf("unseen script should be UNK: %v", got)
	}
}

func TestWordPieceSpecialsPassThrough(t *testing.T) {
	wp := buildTestWP()
	got := wp.TokenizeWord(ClsToken)
	if len(got) != 1 || got[0] != ClsToken {
		t.Fatalf("special token mangled: %v", got)
	}
}

func TestWordPieceTokenizeSpans(t *testing.T) {
	wp := buildTestWP()
	pieces, spans := wp.Tokenize([]string{"the", "bookshop", "a"})
	if len(spans) != 3 {
		t.Fatalf("spans: %v", spans)
	}
	if spans[0] != [2]int{0, 1} {
		t.Fatalf("span 0: %v", spans[0])
	}
	if spans[1][0] != 1 || spans[1][1] <= spans[1][0] {
		t.Fatalf("span 1: %v", spans[1])
	}
	if spans[2][1] != len(pieces) {
		t.Fatalf("span end mismatch: %v vs %d pieces", spans, len(pieces))
	}
}

// Property: any word made of characters seen in training round-trips
// through tokenize+detokenize.
func TestWordPieceRoundTripProperty(t *testing.T) {
	wp := buildTestWP()
	letters := []rune("abcdeghiklmnoprst")
	f := func(seed uint8, length uint8) bool {
		n := int(length)%8 + 1
		runes := make([]rune, n)
		x := int(seed)
		for i := range runes {
			x = (x*31 + 7) % len(letters)
			runes[i] = letters[x]
		}
		w := string(runes)
		pieces := wp.TokenizeWord(w)
		if len(pieces) == 1 && pieces[0] == UnkToken {
			return true // acceptable: not all chars merge
		}
		return Detokenize(pieces) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLearnWordPieceDeterministic(t *testing.T) {
	counts := map[string]int{"alpha": 5, "alps": 5, "beta": 3, "bet": 3}
	a := LearnWordPiece(counts, 100)
	b := LearnWordPiece(counts, 100)
	if a.Vocab().Size() != b.Vocab().Size() {
		t.Fatal("non-deterministic vocab size")
	}
	for i := 0; i < a.Vocab().Size(); i++ {
		if a.Vocab().Token(i) != b.Vocab().Token(i) {
			t.Fatalf("non-deterministic vocab at %d: %q vs %q", i, a.Vocab().Token(i), b.Vocab().Token(i))
		}
	}
}

func TestLearnWordPieceRespectsBudget(t *testing.T) {
	counts := map[string]int{}
	words := []string{"aaa", "aab", "abb", "bbb", "aba", "bab"}
	for i, w := range words {
		counts[w] = 10 + i
	}
	wp := LearnWordPiece(counts, 12)
	if wp.Vocab().Size() > 13 { // budget may be exceeded by at most the final merge
		t.Fatalf("vocab size %d exceeds budget", wp.Vocab().Size())
	}
}

func TestDetokenize(t *testing.T) {
	got := Detokenize([]string{"book", "##shop", "online"})
	if got != "bookshop online" {
		t.Fatalf("Detokenize: %q", got)
	}
}

func BenchmarkNormalize(b *testing.B) {
	line := "An Introduction to Deep Learning by Eugene Charniak, Hardcover $40.13 Free Shipping!"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Normalize(line)
	}
}

func BenchmarkWordPieceTokenize(b *testing.B) {
	wp := buildTestWP()
	words := []string{"the", "bookshop", "shopping", "deep", "learning", "bookings"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wp.Tokenize(words)
	}
}

// Property: NormalizeDocument never yields empty sentences, and every token
// in the output came through Normalize (lowercase or special).
func TestNormalizeDocumentProperty(t *testing.T) {
	f := func(a, b string) bool {
		sents := NormalizeDocument([]string{a, b})
		for _, s := range sents {
			if len(s) == 0 {
				return false
			}
			for _, tok := range s {
				if tok == "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSentencesDecimalNumbers(t *testing.T) {
	// "$ 40.13" normalises with an inner "." that must NOT split.
	toks := Normalize("the price is $40.13 today. next sentence")
	sents := SplitSentences(toks)
	if len(sents) != 2 {
		t.Fatalf("decimal point split a sentence: %v", sents)
	}
	joined := strings.Join(sents[0], " ")
	if !strings.Contains(joined, DigitToken+" . "+DigitToken) {
		t.Fatalf("decimal structure lost: %q", joined)
	}
}

func TestSplitSentencesTrailingDecimal(t *testing.T) {
	// A digit-terminated sentence: "costs 5." — terminal dot not between
	// digits, must split.
	toks := Normalize("costs 5. more text")
	sents := SplitSentences(toks)
	if len(sents) != 2 {
		t.Fatalf("terminal dot after digit must split: %v", sents)
	}
}
