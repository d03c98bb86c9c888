package htmldom

import (
	"strings"
)

// NodeType distinguishes DOM node kinds.
type NodeType int

// DOM node kinds.
const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Node is one node in the parsed document tree.
type Node struct {
	Type     NodeType
	Tag      string // element tag name, lowercased (ElementNode only)
	Text     string // character data (TextNode / CommentNode)
	Attrs    []Attribute
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AppendChild attaches c as the last child of n.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Walk visits n and all descendants in document order. Returning false from
// fn skips the node's subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns the first descendant element (including n itself) with the
// given tag, or nil.
func (n *Node) Find(tag string) *Node {
	var found *Node
	n.Walk(func(x *Node) bool {
		if found != nil {
			return false
		}
		if x.Type == ElementNode && x.Tag == tag {
			found = x
			return false
		}
		return true
	})
	return found
}

// FindAll returns all descendant elements (including n) with the given tag
// in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Type == ElementNode && x.Tag == tag {
			out = append(out, x)
		}
		return true
	})
	return out
}

// voidElements never have children, per the HTML spec.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// impliedEndBy maps an element to the set of start tags that implicitly
// close it — the minimal tag-omission rules needed for real-world tables
// and lists (e.g. a new <li> closes the previous <li>).
var impliedEndBy = map[string]map[string]bool{
	"li":     {"li": true},
	"p":      {"p": true, "div": true, "ul": true, "ol": true, "table": true, "h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true, "section": true, "article": true},
	"td":     {"td": true, "th": true, "tr": true},
	"th":     {"td": true, "th": true, "tr": true},
	"tr":     {"tr": true},
	"option": {"option": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
}

// Parse builds a DOM tree from HTML source. It never fails: malformed
// markup degrades to a best-effort tree, mirroring browser error recovery.
func Parse(src string) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	z := newTokenizer(src)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			top().AppendChild(&Node{Type: TextNode, Text: tok.Data})
		case CommentToken:
			top().AppendChild(&Node{Type: CommentNode, Text: tok.Data})
		case DoctypeToken:
			// Dropped: the doctype carries no content.
		case SelfClosingTagToken:
			top().AppendChild(&Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs})
		case StartTagToken:
			// Apply implied-end rules before opening the new element.
			for len(stack) > 1 {
				cur := top()
				if ends, ok := impliedEndBy[cur.Tag]; ok && ends[tok.Data] {
					stack = stack[:len(stack)-1]
					continue
				}
				break
			}
			el := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs}
			top().AppendChild(el)
			if !voidElements[tok.Data] {
				stack = append(stack, el)
			}
		case EndTagToken:
			// Pop to the matching open element if one exists; otherwise
			// ignore the stray close tag.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}
