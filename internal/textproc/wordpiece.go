package textproc

import (
	"sort"
	"strings"
)

// WordPiece is a subword tokenizer in the style of BERT's: words are split
// by greedy longest-match-first lookup against a subword vocabulary, with
// continuation pieces marked by a "##" prefix and unmatchable words mapped
// to [UNK].
//
// The subword vocabulary is learned from corpus word counts with BPE-style
// frequency merges — the standard open-source stand-in for Google's
// likelihood-based WordPiece trainer; inference (the part models depend on)
// is the exact WordPiece algorithm.
type WordPiece struct {
	vocab    *Vocab
	maxChars int
}

// ContinuationPrefix marks non-initial subword pieces.
const ContinuationPrefix = "##"

// LearnWordPiece builds a subword vocabulary from word frequency counts,
// targeting at most maxSize entries (including specials and single
// characters). Words passed through Normalize first tokenize cleanly.
func LearnWordPiece(counts map[string]int, maxSize int) *WordPiece {
	// Represent each word as a sequence of pieces, initially characters
	// (first piece bare, rest ##-prefixed).
	type word struct {
		pieces []string
		count  int
	}
	var words []word
	for w, c := range counts {
		if w == "" {
			continue
		}
		runes := []rune(w)
		pieces := make([]string, len(runes))
		for i, r := range runes {
			if i == 0 {
				pieces[i] = string(r)
			} else {
				pieces[i] = ContinuationPrefix + string(r)
			}
		}
		words = append(words, word{pieces, c})
	}
	// Deterministic iteration order.
	sort.Slice(words, func(i, j int) bool {
		return strings.Join(words[i].pieces, "") < strings.Join(words[j].pieces, "")
	})

	vocab := NewVocab()
	addPiece := func(p string) { vocab.Add(p) }
	for _, w := range words {
		for _, p := range w.pieces {
			addPiece(p)
		}
	}

	// Greedy merges until the size budget is reached or no pair repeats.
	for vocab.Size() < maxSize {
		pairCount := make(map[[2]string]int)
		for _, w := range words {
			for i := 0; i+1 < len(w.pieces); i++ {
				pairCount[[2]string{w.pieces[i], w.pieces[i+1]}] += w.count
			}
		}
		var best [2]string
		bestC := 1 // require count >= 2 to merge
		for p, c := range pairCount {
			if c > bestC || (c == bestC && better(p, best)) {
				best, bestC = p, c
			}
		}
		if bestC < 2 {
			break
		}
		merged := best[0] + strings.TrimPrefix(best[1], ContinuationPrefix)
		addPiece(merged)
		for wi := range words {
			w := &words[wi]
			var out []string
			for i := 0; i < len(w.pieces); i++ {
				if i+1 < len(w.pieces) && w.pieces[i] == best[0] && w.pieces[i+1] == best[1] {
					out = append(out, merged)
					i++
				} else {
					out = append(out, w.pieces[i])
				}
			}
			w.pieces = out
		}
	}
	return &WordPiece{vocab: vocab, maxChars: 100}
}

// better orders pairs deterministically for tie-breaking.
func better(a, b [2]string) bool {
	if b[0] == "" && b[1] == "" {
		return true
	}
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Vocab returns the underlying subword vocabulary.
func (wp *WordPiece) Vocab() *Vocab { return wp.vocab }

// TokenizeWord splits a single word into subword pieces by greedy longest
// match. Special tokens pass through unchanged. If no prefix matches, the
// whole word becomes [UNK], exactly as in BERT.
func (wp *WordPiece) TokenizeWord(w string) []string {
	if w == "" {
		return nil
	}
	if wp.vocab.Has(w) || strings.HasPrefix(w, "[") {
		return []string{w}
	}
	runes := []rune(w)
	if len(runes) > wp.maxChars {
		return []string{UnkToken}
	}
	var pieces []string
	start := 0
	for start < len(runes) {
		end := len(runes)
		var piece string
		found := false
		for end > start {
			cand := string(runes[start:end])
			if start > 0 {
				cand = ContinuationPrefix + cand
			}
			if wp.vocab.Has(cand) {
				piece = cand
				found = true
				break
			}
			end--
		}
		if !found {
			return []string{UnkToken}
		}
		pieces = append(pieces, piece)
		start = end
	}
	return pieces
}

// Tokenize maps word-level tokens to subword pieces. WordSpans returns, for
// each input word, the [start, end) range of its pieces in the output —
// needed to project word-level attribute span labels onto subword positions.
func (wp *WordPiece) Tokenize(words []string) (pieces []string, wordSpans [][2]int) {
	for _, w := range words {
		start := len(pieces)
		pieces = append(pieces, wp.TokenizeWord(w)...)
		wordSpans = append(wordSpans, [2]int{start, len(pieces)})
	}
	return pieces, wordSpans
}

// Detokenize reassembles words from subword pieces by stripping continuation
// prefixes; it is the inverse of TokenizeWord for in-vocabulary words.
//
//wbcheck:ignore deadexport -- paper component: PAPER.md §2 WordPiece row; the inverse FuzzWordPiece round-trips TokenizeWord through
func Detokenize(pieces []string) string {
	var b strings.Builder
	for i, p := range pieces {
		if cont := strings.TrimPrefix(p, ContinuationPrefix); cont != p {
			b.WriteString(cont)
			continue
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p)
	}
	return b.String()
}
