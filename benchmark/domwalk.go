package main

import (
	"fmt"
	"strings"

	"xmlrdb/internal/xmltree"
)

// domPath is a path query evaluated directly on the DOM: the oracle the
// served row counts are compared with. It shares no code with
// pathquery, the translator or the engine. Supported: child (/) and
// descendant (//) steps, * wildcard, [@a] and [@a='v'] predicates, and a
// final text() or @a projection.
type domPath struct {
	steps []domStep
	proj  string // "", "text()" or "@name"
}

type domStep struct {
	desc      bool
	name      string
	attr, val string
	hasVal    bool
}

func parseDOMPath(src string) (domPath, error) {
	var p domPath
	rest := src
	for rest != "" {
		if !strings.HasPrefix(rest, "/") {
			return p, fmt.Errorf("path %q: expected / at %q", src, rest)
		}
		st := domStep{desc: strings.HasPrefix(rest, "//")}
		rest = strings.TrimLeft(rest, "/")
		end := strings.IndexByte(rest, '/')
		if q := strings.IndexByte(rest, '['); q >= 0 && (end < 0 || q < end) {
			end = strings.IndexByte(rest, ']') + 1 // a predicate value may hold a slash
		}
		if end <= 0 {
			end = len(rest)
		}
		tok := rest[:end]
		rest = rest[end:]
		if tok == "text()" || strings.HasPrefix(tok, "@") {
			if rest != "" || st.desc {
				return p, fmt.Errorf("path %q: projection %q must be the last child step", src, tok)
			}
			p.proj = tok
			break
		}
		if i := strings.IndexByte(tok, '['); i >= 0 {
			pred := strings.TrimSuffix(tok[i+1:], "]")
			tok = tok[:i]
			if !strings.HasPrefix(pred, "@") {
				return p, fmt.Errorf("path %q: unsupported predicate %q", src, pred)
			}
			st.attr, st.val, st.hasVal = strings.Cut(pred[1:], "=")
			st.val = strings.Trim(st.val, `'"`)
		}
		st.name = tok
		p.steps = append(p.steps, st)
	}
	if len(p.steps) == 0 {
		return p, fmt.Errorf("path %q: no steps", src)
	}
	return p, nil
}

func (s domStep) matches(n *xmltree.Node) bool {
	if n.Kind != xmltree.ElementNode || (s.name != "*" && s.name != n.Name) {
		return false
	}
	if s.attr == "" {
		return true
	}
	v, ok := n.Attr(s.attr)
	return ok && (!s.hasVal || v == s.val)
}

// count returns the number of result rows the path has on one document.
func (p domPath) count(root *xmltree.Node) int {
	cur := []*xmltree.Node{{Children: []*xmltree.Node{root}}} // the document node
	for _, st := range p.steps {
		var next []*xmltree.Node
		for _, n := range cur {
			if st.desc {
				n.Descendants(func(d *xmltree.Node) bool {
					if d != n && st.matches(d) {
						next = append(next, d)
					}
					return true
				})
				continue
			}
			for _, c := range n.Children {
				if st.matches(c) {
					next = append(next, c)
				}
			}
		}
		cur = next
	}
	if p.proj == "" {
		return len(cur)
	}
	rows := 0
	for _, n := range cur {
		if p.proj == "text()" {
			if n.Text() != "" {
				rows++
			}
		} else if _, ok := n.Attr(p.proj[1:]); ok {
			rows++
		}
	}
	return rows
}
