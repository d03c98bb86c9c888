package textproc

import (
	"strings"
	"unicode"
)

// isDigits reports whether s consists solely of decimal digits in any
// script (the same unicode.IsDigit notion the tokenizer splits on, so a
// digit run always collapses to <digit> regardless of script).
func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// Normalize converts one line of visible text into word-level tokens per the
// paper's preprocessing: lowercase everything, replace digit runs with
// <digit>, and keep each punctuation mark as its own single token. A number
// like "40.13" therefore becomes ["<digit>", ".", "<digit>"], and "$40" is
// ["$", "<digit>"].
func Normalize(line string) []string {
	line = strings.ToLower(line)
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		w := cur.String()
		cur.Reset()
		if isDigits(w) {
			toks = append(toks, DigitToken)
		} else {
			toks = append(toks, w)
		}
	}
	for _, r := range line {
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			// Split at letter↔digit boundaries so "b2b" → "b", <digit>, "b"
			// keeps digits isolated as the paper requires.
			if cur.Len() > 0 {
				prev := cur.String()
				prevDigit := isDigits(prev)
				curDigit := unicode.IsDigit(r)
				if prevDigit != curDigit {
					flush()
				}
			}
			cur.WriteRune(r)
		default:
			// Punctuation and symbols are single tokens.
			flush()
			toks = append(toks, string(r))
		}
	}
	flush()
	return toks
}

// sentenceEnders terminate a sentence when followed by space or end of line.
var sentenceEnders = map[string]bool{".": true, "!": true, "?": true}

// SplitSentences splits a token stream into sentences at sentence-final
// punctuation; the punctuation token stays with its sentence. Lines with no
// terminal punctuation form a single sentence, which is how boilerplate
// fragments like navigation labels behave. A "." between two <digit> tokens
// is a decimal point (e.g. the price "$40.13" normalises to
// ["$", "<digit>", ".", "<digit>"]) and never ends a sentence.
func SplitSentences(toks []string) [][]string {
	var out [][]string
	var cur []string
	for i, tok := range toks {
		cur = append(cur, tok)
		if !sentenceEnders[tok] {
			continue
		}
		if tok == "." && i > 0 && i+1 < len(toks) && toks[i-1] == DigitToken && toks[i+1] == DigitToken {
			continue
		}
		out = append(out, cur)
		cur = nil
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// NormalizeDocument converts the block-level lines of a rendered page into
// sentences of word tokens, treating each line break as a sentence boundary
// (the rendered newline is a structural separator on webpages).
func NormalizeDocument(lines []string) [][]string {
	var sents [][]string
	for _, line := range lines {
		toks := Normalize(line)
		if len(toks) == 0 {
			continue
		}
		sents = append(sents, SplitSentences(toks)...)
	}
	return sents
}

// InsertCLS prepends the [CLS] token to every sentence and returns the flat
// token sequence together with the index of each [CLS], the document
// representation of §III-C (one [CLS] per sentence collects its latent
// summarising features).
//
//wbcheck:ignore deadexport -- paper component: PAPER.md §2 WordPiece row, "per-sentence [CLS]" (§III-C document representation)
func InsertCLS(sents [][]string) (flat []string, clsIdx []int) {
	for _, s := range sents {
		clsIdx = append(clsIdx, len(flat))
		flat = append(flat, ClsToken)
		flat = append(flat, s...)
	}
	return flat, clsIdx
}

// SegmentIDs returns BERTSUM's alternating interval segment ids: tokens of
// even-numbered sentences get segment 0, odd-numbered get segment 1.
//
//wbcheck:ignore deadexport -- paper component: PAPER.md §2 BERTSUM row, "per-sentence [CLS] + segment embeddings"
func SegmentIDs(sents [][]string) []int {
	var segs []int
	for i, s := range sents {
		seg := i % 2
		for n := len(s) + 1; n > 0; n-- { // +1 for the [CLS] slot
			segs = append(segs, seg)
		}
	}
	return segs
}
