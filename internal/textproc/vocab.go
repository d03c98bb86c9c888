// Package textproc implements the paper's text preprocessing pipeline
// (§IV-A3): lowercasing, digit replacement with a <digit> token, punctuation
// and newline preserved as single tokens, sentence splitting with a [CLS]
// token inserted at the start of each sentence, and a WordPiece subword
// tokenizer with a vocabulary learned from the corpus.
package textproc

import (
	"fmt"
	"sort"
)

// Special tokens. Their ids are fixed and allocated first so every model can
// rely on them.
const (
	PadToken   = "[PAD]"
	UnkToken   = "[UNK]"
	ClsToken   = "[CLS]"
	SepToken   = "[SEP]"
	BosToken   = "[BOS]"
	EosToken   = "[EOS]"
	MaskToken  = "[MASK]"
	DigitToken = "<digit>"
	NLToken    = "<nl>"
)

// Fixed ids of the special tokens.
//
//wbcheck:ignore deadexport -- format constants: the ids are the vocabulary's on-disk layout (snapshot bundles store token ids), so the block stays whole — deleting an unused one would renumber the rest
const (
	PadID = iota
	UnkID
	ClsID
	SepID
	BosID
	EosID
	MaskID
	DigitID
	NLID
	numSpecials
)

// specials in id order.
var specials = []string{
	PadToken, UnkToken, ClsToken, SepToken, BosToken, EosToken,
	MaskToken, DigitToken, NLToken,
}

// Vocab is a bidirectional token↔id mapping with the special tokens
// pre-allocated at fixed ids.
type Vocab struct {
	idOf   map[string]int
	tokens []string
}

// NewVocab returns a vocabulary containing only the special tokens.
func NewVocab() *Vocab {
	v := &Vocab{idOf: make(map[string]int, 64)}
	for _, s := range specials {
		v.Add(s)
	}
	return v
}

// Add inserts tok if absent and returns its id.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.idOf[tok]; ok {
		return id
	}
	id := len(v.tokens)
	v.idOf[tok] = id
	v.tokens = append(v.tokens, tok)
	return id
}

// ID returns the id of tok, or UnkID if it is not in the vocabulary.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.idOf[tok]; ok {
		return id
	}
	return UnkID
}

// Has reports whether tok is in the vocabulary.
func (v *Vocab) Has(tok string) bool {
	_, ok := v.idOf[tok]
	return ok
}

// Token returns the token string for id; it panics on out-of-range ids
// because those are always caller bugs.
func (v *Vocab) Token(id int) string {
	if id < 0 || id >= len(v.tokens) {
		panic(fmt.Sprintf("textproc: token id %d out of range [0,%d)", id, len(v.tokens)))
	}
	return v.tokens[id]
}

// Size returns the number of tokens including specials.
func (v *Vocab) Size() int { return len(v.tokens) }

// IDs maps a token slice to ids (unknown → UnkID).
func (v *Vocab) IDs(toks []string) []int {
	out := make([]int, len(toks))
	for i, tok := range toks {
		out[i] = v.ID(tok)
	}
	return out
}

// Tokens maps an id slice back to token strings.
func (v *Vocab) Tokens(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Token(id)
	}
	return out
}

// BuildVocab returns a vocabulary of the words occurring at least minCount
// times in counts, added in descending frequency (ties broken
// lexicographically) so ids are deterministic.
func BuildVocab(counts map[string]int, minCount int) *Vocab {
	v := NewVocab()
	type wc struct {
		w string
		c int
	}
	var ws []wc
	for w, c := range counts {
		if c >= minCount {
			ws = append(ws, wc{w, c})
		}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].c != ws[j].c {
			return ws[i].c > ws[j].c
		}
		return ws[i].w < ws[j].w
	})
	for _, x := range ws {
		v.Add(x.w)
	}
	return v
}
