// Package baselines implements the comparison mappings the paper's §6
// names as the context for its deferred evaluation: the Edge table of
// Florescu–Kossmann, a Universal table, and the Basic / Shared / Hybrid
// inlining strategies of Shanmugasundaram et al. (VLDB'99). Every
// baseline presents the same surface as the ER mapping — schema
// generation, document loading, and path-query translation — so the
// xmlbench harness can compare schema size (E4), loading throughput
// (E5), query joins and latency (E6/E9), and storage footprint (E12)
// across all of them.
package baselines

import (
	"sort"
	"sync"

	"xmlrdb/internal/dtd"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/rel"
	"xmlrdb/internal/xmltree"
)

// Engine is the storage surface loaders write through (satisfied by
// *engine.DB).
type Engine interface {
	// Insert appends one row in column order.
	Insert(table string, row []any) (int, error)
	// InsertMap appends one row given as column->value.
	InsertMap(table string, vals map[string]any) (int, error)
	// InsertBatchMulti atomically appends per-table batches in slice
	// order (the ER loader commits each document as one such call).
	InsertBatchMulti(tables []string, batches [][][]any) (int, error)
}

// LoadStats reports what one document contributed.
type LoadStats struct {
	// DocID is the assigned document number.
	DocID int64
	// Rows counts inserted rows across all tables.
	Rows int
}

// Mapping is the common surface of an XML-to-relational mapping: the ER
// mapping of the paper and every baseline implement it.
type Mapping interface {
	// Name identifies the mapping in reports.
	Name() string
	// Schema returns the generated relational schema.
	Schema() *rel.Schema
	// Load shreds one document.
	Load(db Engine, doc *xmltree.Document, name string) (LoadStats, error)
	// Translator converts path queries to SQL over this schema.
	Translator() pathquery.Translator
}

// flat is the flattened structural view of a DTD shared by the
// baselines: per-element ordered child sets with repetition flags,
// in-degrees, recursion, text/any classification.
type flat struct {
	d     *dtd.DTD
	order []string // declaration order
	// children: element -> ordered distinct child names.
	children map[string][]string
	// repeated: element -> child -> the child may occur more than once.
	repeated map[string]map[string]bool
	// optionalChild: element -> child -> the child may be absent.
	optionalChild map[string]map[string]bool
	indegree      map[string]int
	recursive     map[string]bool
	hasText       map[string]bool // #PCDATA or mixed
	anyContent    map[string]bool
	roots         []string
}

func flatten(d *dtd.DTD) *flat {
	f := &flat{
		d:             d,
		order:         append([]string(nil), d.ElementOrder...),
		children:      make(map[string][]string),
		repeated:      make(map[string]map[string]bool),
		optionalChild: make(map[string]map[string]bool),
		indegree:      make(map[string]int),
		recursive:     make(map[string]bool),
		hasText:       make(map[string]bool),
		anyContent:    make(map[string]bool),
	}
	addChild := func(parent, child string, repeated, optional bool) {
		if f.repeated[parent] == nil {
			f.repeated[parent] = make(map[string]bool)
			f.optionalChild[parent] = make(map[string]bool)
		}
		if _, seen := f.repeated[parent][child]; !seen {
			f.children[parent] = append(f.children[parent], child)
			f.repeated[parent][child] = repeated
			f.optionalChild[parent][child] = optional
			return
		}
		// A second occurrence in the model means the child can repeat.
		f.repeated[parent][child] = true
		f.optionalChild[parent][child] = f.optionalChild[parent][child] && optional
	}
	for _, name := range f.order {
		decl := d.Elements[name]
		switch decl.Content.Kind {
		case dtd.ContentMixed:
			f.hasText[name] = true
			for _, child := range decl.Content.MixedNames {
				addChild(name, child, true, true)
			}
			if decl.Content.IsPCDataOnly() {
				// plain text leaf
			}
		case dtd.ContentAny:
			f.anyContent[name] = true
		case dtd.ContentChildren:
			var walk func(p *dtd.Particle, repeated, optional bool)
			walk = func(p *dtd.Particle, repeated, optional bool) {
				rep := repeated || p.Occ.Repeatable()
				opt := optional || p.Occ.Optional() || (p.Kind == dtd.PKChoice && len(p.Children) > 1)
				if p.Kind == dtd.PKName {
					addChild(name, p.Name, rep, opt)
					return
				}
				for _, ch := range p.Children {
					walk(ch, rep, opt)
				}
			}
			if decl.Content.Particle != nil {
				walk(decl.Content.Particle, false, false)
			}
		}
	}
	// In-degrees over distinct parent-child pairs.
	for _, parent := range f.order {
		for _, child := range f.children[parent] {
			f.indegree[child]++
		}
	}
	// Recursion: elements on a cycle in the child graph.
	f.recursive = findRecursive(f)
	for _, name := range f.order {
		if f.indegree[name] == 0 {
			f.roots = append(f.roots, name)
		}
	}
	if len(f.roots) == 0 && len(f.order) > 0 {
		// Fully recursive DTD: treat every declared element as a root
		// candidate so documents remain loadable.
		f.roots = append(f.roots, f.order...)
	}
	return f
}

// findRecursive returns the elements participating in a cycle.
func findRecursive(f *flat) map[string]bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	onCycle := make(map[string]bool)
	var stack []string
	var visit func(string)
	visit = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		for _, c := range f.children[n] {
			switch color[c] {
			case white:
				visit(c)
			case gray:
				// Everything on the stack from c onward is cyclic.
				for i := len(stack) - 1; i >= 0; i-- {
					onCycle[stack[i]] = true
					if stack[i] == c {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range f.order {
		if color[n] == white {
			visit(n)
		}
	}
	return onCycle
}

// textLeaf reports whether the element is pure #PCDATA (storable as one
// value).
func (f *flat) textLeaf(name string) bool {
	decl := f.d.Elements[name]
	return decl != nil && decl.Content.IsPCDataOnly()
}

// attNames returns the declared attribute names of an element in order.
func (f *flat) attNames(name string) []string {
	var out []string
	for _, a := range f.d.Atts(name) {
		out = append(out, a.Name)
	}
	return out
}

// sortedNames returns map keys sorted, for deterministic schemas.
func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// escapeSQL doubles single quotes for SQL literals.
func escapeSQL(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// innerXML serializes an element's children (raw storage of ANY
// content).
func innerXML(el *xmltree.Node) string {
	out := ""
	for _, c := range el.Children {
		out += c.XML()
	}
	return out
}

// docCounter allocates document and node ids for baseline loaders.
type docCounter struct {
	mu      sync.Mutex
	nextDoc int64
	nextID  int64
}

func (c *docCounter) doc() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextDoc++
	return c.nextDoc
}

func (c *docCounter) node() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}
