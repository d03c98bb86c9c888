// Package htmldom implements an HTML tokenizer, a DOM parser, and a
// visible-text renderer. It is this repository's substitute for the
// automated rendering software (Selenium) the paper uses in §IV-A3 to
// collect the visible text of webpages: given markup, it produces the text a
// reader would see, in document order, with block boundaries preserved so
// the downstream pipeline can split sentences.
//
// The tokenizer and parser are written from scratch on the stdlib only.
// They handle the constructs that occur in real content-rich pages — nested
// elements, void elements, attributes in all three quoting styles, comments,
// doctype, raw-text elements (script/style), character references — and are
// deliberately forgiving about the tag-soup found in the wild: unknown or
// mismatched closing tags never abort parsing.
package htmldom

import (
	"strings"
)

// TokenType identifies a lexical token in an HTML byte stream.
type TokenType int

// Token types produced by the Tokenizer.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// String returns a human-readable token type name.
func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingTagToken:
		return "SelfClosingTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	}
	return "Unknown"
}

// Attribute is a single name/value pair on a tag.
type Attribute struct {
	Name, Value string
}

// Token is one lexical unit: a tag with attributes, or a text/comment run.
type Token struct {
	Type  TokenType
	Data  string // tag name (lowercased) or text/comment content
	Attrs []Attribute
}

// rawTextElements are elements whose content is consumed verbatim until the
// matching close tag, per the HTML parsing spec.
var rawTextElements = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}

// Tokenizer splits HTML source into tokens.
type Tokenizer struct {
	src string
	pos int
	// pendingRawEnd is set after a raw-text start tag is emitted so the
	// next call consumes everything up to its end tag as one text token.
	pendingRawEnd string
}

// NewTokenizer returns a tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token, or ok=false at end of input.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pendingRawEnd != "" {
		return z.rawText()
	}
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.src[z.pos] == '<' {
		return z.tag()
	}
	return z.text()
}

// rawText consumes content up to the close tag recorded in pendingRawEnd.
func (z *Tokenizer) rawText() (Token, bool) {
	name := z.pendingRawEnd
	z.pendingRawEnd = ""
	// The close tag is matched ASCII-case-insensitively on the RAW bytes:
	// lowercasing the source first would shift byte offsets on invalid
	// UTF-8 (ToLower substitutes U+FFFD, which is longer than one byte).
	idx := indexCloseTagFold(z.src[z.pos:], name)
	if idx < 0 {
		// Unterminated raw text: consume to EOF.
		tok := Token{Type: TextToken, Data: z.src[z.pos:]}
		z.pos = len(z.src)
		if tok.Data == "" {
			return Token{}, false
		}
		return tok, true
	}
	data := z.src[z.pos : z.pos+idx]
	z.pos += idx
	if data == "" {
		// Empty raw content: fall through to the end tag.
		return z.Next()
	}
	return Token{Type: TextToken, Data: data}, true
}

// indexCloseTagFold returns the byte offset of the first occurrence of
// "</name" in s, matching ASCII letters case-insensitively, or -1. Offsets
// refer to s's raw bytes, so arbitrary (even invalid-UTF-8) content between
// here and the close tag cannot shift them.
func indexCloseTagFold(s, name string) int {
	target := "</" + name
	for i := 0; i+len(target) <= len(s); i++ {
		if asciiEqualFold(s[i:i+len(target)], target) {
			return i
		}
	}
	return -1
}

// asciiEqualFold reports whether a and b are equal under ASCII lowercasing.
// b is expected to be already lowercase.
func asciiEqualFold(a, b string) bool {
	for i := 0; i < len(a); i++ {
		ca := a[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if ca != b[i] {
			return false
		}
	}
	return true
}

// text consumes a run of character data up to the next '<'.
func (z *Tokenizer) text() (Token, bool) {
	end := strings.IndexByte(z.src[z.pos:], '<')
	var data string
	if end < 0 {
		data = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		data = z.src[z.pos : z.pos+end]
		z.pos += end
	}
	return Token{Type: TextToken, Data: UnescapeEntities(data)}, true
}

// tag consumes a tag, comment, or doctype beginning at '<'.
func (z *Tokenizer) tag() (Token, bool) {
	src := z.src
	if strings.HasPrefix(src[z.pos:], "<!--") {
		end := strings.Index(src[z.pos+4:], "-->")
		if end < 0 {
			data := src[z.pos+4:]
			z.pos = len(src)
			return Token{Type: CommentToken, Data: data}, true
		}
		data := src[z.pos+4 : z.pos+4+end]
		z.pos += 4 + end + 3
		return Token{Type: CommentToken, Data: data}, true
	}
	if strings.HasPrefix(src[z.pos:], "<!") || strings.HasPrefix(src[z.pos:], "<?") {
		end := strings.IndexByte(src[z.pos:], '>')
		if end < 0 {
			z.pos = len(src)
			return Token{Type: DoctypeToken}, true
		}
		data := src[z.pos+2 : z.pos+end]
		z.pos += end + 1
		return Token{Type: DoctypeToken, Data: strings.TrimSpace(data)}, true
	}
	gt := strings.IndexByte(src[z.pos:], '>')
	if gt < 0 {
		// Stray '<' at EOF: treat the rest as text.
		tok := Token{Type: TextToken, Data: src[z.pos:]}
		z.pos = len(src)
		return tok, true
	}
	inner := src[z.pos+1 : z.pos+gt]
	z.pos += gt + 1
	if inner == "" {
		// "<>" is not a tag; emit it as text.
		return Token{Type: TextToken, Data: "<>"}, true
	}
	if inner[0] == '/' {
		name := strings.ToLower(strings.TrimSpace(inner[1:]))
		return Token{Type: EndTagToken, Data: name}, true
	}
	selfClosing := strings.HasSuffix(inner, "/")
	if selfClosing {
		inner = strings.TrimSuffix(inner, "/")
	}
	name, attrs := parseTagBody(inner)
	typ := StartTagToken
	if selfClosing {
		typ = SelfClosingTagToken
	}
	if typ == StartTagToken && rawTextElements[name] {
		z.pendingRawEnd = name
	}
	return Token{Type: typ, Data: name, Attrs: attrs}, true
}

// parseTagBody splits "div class='x' id=y" into the tag name and attributes.
func parseTagBody(s string) (string, []Attribute) {
	s = strings.TrimSpace(s)
	i := 0
	for i < len(s) && !isSpace(s[i]) {
		i++
	}
	name := strings.ToLower(s[:i])
	var attrs []Attribute
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		for i < len(s) && s[i] != '=' && !isSpace(s[i]) {
			i++
		}
		aname := strings.ToLower(s[start:i])
		if aname == "" {
			i++
			continue
		}
		var aval string
		if i < len(s) && s[i] == '=' {
			i++
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				quote := s[i]
				i++
				vstart := i
				for i < len(s) && s[i] != quote {
					i++
				}
				aval = s[vstart:i]
				if i < len(s) {
					i++ // closing quote
				}
			} else {
				vstart := i
				for i < len(s) && !isSpace(s[i]) {
					i++
				}
				aval = s[vstart:i]
			}
		}
		attrs = append(attrs, Attribute{Name: aname, Value: UnescapeEntities(aval)})
	}
	return name, attrs
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}

// namedEntities covers the character references that occur in practice on
// content pages; numeric references are handled generically.
var namedEntities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™',
	"mdash": '—', "ndash": '–', "hellip": '…', "middot": '·',
	"laquo": '«', "raquo": '»', "lsquo": '‘', "rsquo": '’',
	"ldquo": '“', "rdquo": '”', "bull": '•', "deg": '°',
	"pound": '£', "euro": '€', "yen": '¥', "cent": '¢', "sect": '§',
	"times": '×', "divide": '÷', "plusmn": '±', "frac12": '½',
}

// UnescapeEntities resolves named and numeric character references in s.
// Unknown references are left untouched, matching browser behaviour.
func UnescapeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if r, ok := namedEntities[ref]; ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		if len(ref) > 1 && ref[0] == '#' {
			if r, ok := parseNumericRef(ref[1:]); ok {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func parseNumericRef(s string) (rune, bool) {
	base := 10
	if len(s) > 1 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	var n int64
	for _, c := range s {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		n = n*int64(base) + d
		if n > 0x10FFFF {
			return 0, false
		}
	}
	if n == 0 {
		return 0, false
	}
	return rune(n), true
}
