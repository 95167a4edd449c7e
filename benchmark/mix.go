package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"xmlrdb/internal/xmltree"
)

// The query classes of the serve mix. The names are part of the
// benchmark: end-to-end metrics are q_<class>_p50_ms and layer metrics
// end in .<class>.
var (
	mixClasses  = []string{"point", "doc", "scan", "join", "agg"}
	mixWeights  = []int{35, 15, 15, 20, 15}
	allClasses  = append(append([]string(nil), mixClasses...), "desc")
	pathClasses = []string{"scan", "join", "desc"}
	// cursorClasses are the classes the engine answers through a cursor.
	cursorClasses = []string{"point", "agg", "scan", "join", "desc"}
)

type templateKind int

const (
	kindSQL templateKind = iota
	kindPath
	kindDoc
)

// template is one query shape. %K in text is replaced by a document id
// drawn uniformly from the loaded base documents, %J by a number in 0..7.
type template struct {
	class string
	kind  templateKind
	text  string
	// countPath, on an aggregate template, is the DOM path whose
	// per-document row counts (over the documents the WHERE clause keeps)
	// must add up to the sum of the COUNT(*) column.
	countPath string
}

func templatesFor(kind string) []template {
	common := []template{
		{class: "point", kind: kindSQL, text: "SELECT doc, name, root_type FROM x_docs WHERE doc = %K"},
		{class: "doc", kind: kindDoc, text: "/doc/%K"},
	}
	if kind == "orders" {
		return append(common,
			template{class: "scan", kind: kindPath, text: "/orders/customer/name/text()"},
			template{class: "scan", kind: kindPath, text: "/orders/order/note/text()"},
			template{class: "scan", kind: kindPath, text: "/orders/order/@status"},
			template{class: "join", kind: kindPath, text: "/orders/order[@status='returned']"},
			template{class: "join", kind: kindPath, text: "/orders/customer[@segment='corporate']/name"},
			template{class: "join", kind: kindPath, text: "/orders/order[@status='shipped']/note"},
			template{class: "join", kind: kindPath, text: "/orders/order[@buyer]"},
			template{class: "join", kind: kindPath, text: "/orders/customer[@id='c%J']/name"},
			template{class: "agg", kind: kindSQL, text: "SELECT a_status, COUNT(*) FROM e_order GROUP BY a_status", countPath: "/orders/order"},
			template{class: "agg", kind: kindSQL, text: "SELECT a_sku, COUNT(*), MIN(doc), MAX(doc) FROM e_item WHERE doc > %K GROUP BY a_sku", countPath: "/orders/order/item"},
			template{class: "desc", kind: kindPath, text: "/orders//item"},
		)
	}
	return append(common,
		template{class: "scan", kind: kindPath, text: "/book/booktitle/text()"},
		template{class: "scan", kind: kindPath, text: "/article/title/text()"},
		template{class: "scan", kind: kindPath, text: "//author"},
		template{class: "join", kind: kindPath, text: "/book/author"},
		template{class: "join", kind: kindPath, text: "/article/author/name"},
		template{class: "join", kind: kindPath, text: "/article/contactauthor[@authorid]"},
		template{class: "join", kind: kindPath, text: "/article/author[@id='id%J']/name"},
		template{class: "join", kind: kindPath, text: "/editor/book/author/name"},
		template{class: "agg", kind: kindSQL, text: "SELECT root_type, COUNT(*) FROM x_docs GROUP BY root_type", countPath: "/*"},
		template{class: "agg", kind: kindSQL, text: "SELECT root_type, COUNT(*), MIN(doc), MAX(doc) FROM x_docs WHERE doc > %K GROUP BY root_type", countPath: "/*"},
		template{class: "desc", kind: kindPath, text: "/editor//book"},
	)
}

// request is one instantiated template.
type request struct {
	tmpl *template
	k    int    // the %K argument, 0 when the template has none
	text string // SQL, path or /doc/K with arguments filled in
}

func (r request) url(base string) string {
	switch r.tmpl.kind {
	case kindSQL:
		return base + "/query?sql=" + url.QueryEscape(r.text)
	case kindPath:
		return base + "/path?q=" + url.QueryEscape(r.text)
	default:
		return base + r.text
	}
}

// variants lists every concrete text a template can take, for templates
// without a %K argument (the ones whose expected counts are precomputed).
func (t *template) variants() []string {
	if !strings.Contains(t.text, "%J") {
		return []string{t.text}
	}
	out := make([]string, 8)
	for j := range out {
		out[j] = strings.ReplaceAll(t.text, "%J", fmt.Sprint(j))
	}
	return out
}

// mixSource draws the seeded request sequence: the class by weight, the
// template round-robin inside its class (so every template gets the same
// share of samples), arguments uniformly.
type mixSource struct {
	rng     *rand.Rand
	byClass map[string][]*template
	next    map[string]int
	docs    int
}

func newMixSource(seed int64, tmpls []template, docs int) *mixSource {
	m := &mixSource{rng: rand.New(rand.NewSource(seed)), byClass: map[string][]*template{}, next: map[string]int{}, docs: docs}
	for i := range tmpls {
		m.byClass[tmpls[i].class] = append(m.byClass[tmpls[i].class], &tmpls[i])
	}
	return m
}

// draw returns the next request of the mix.
func (m *mixSource) draw() request {
	w := m.rng.Intn(100)
	class := mixClasses[len(mixClasses)-1]
	for i, cw := range mixWeights {
		if w < cw {
			class = mixClasses[i]
			break
		}
		w -= cw
	}
	return m.drawClass(class)
}

// drawClass returns the next request of one class.
func (m *mixSource) drawClass(class string) request {
	ts := m.byClass[class]
	t := ts[m.next[class]%len(ts)]
	m.next[class]++
	return m.instantiate(t)
}

func (m *mixSource) instantiate(t *template) request {
	vs := t.variants()
	return m.instantiateVariant(t, vs[m.rng.Intn(len(vs))])
}

// instantiateVariant fills the %K argument of one variant of t.
func (m *mixSource) instantiateVariant(t *template, variant string) request {
	r := request{tmpl: t, text: variant}
	if strings.Contains(r.text, "%K") {
		r.k = 1 + m.rng.Intn(m.docs)
		r.text = strings.ReplaceAll(r.text, "%K", fmt.Sprint(r.k))
	}
	return r
}

// expectations holds, per DOM path, the row count of every document:
// base documents first, then the writer's, as prefix sums so that any
// range of document ids is one subtraction.
type expectations struct {
	base   int
	prefix map[string][]int // prefix[p][i] = rows of path p in documents 1..i
}

// buildExpectations evaluates every precomputable path on every document
// with the DOM walker. Documents are parsed one at a time and dropped, so
// the oracle does not keep the corpus as trees.
func buildExpectations(c *corpus, tmpls []template) (*expectations, error) {
	paths := map[string]domPath{}
	add := func(text string) error {
		if _, ok := paths[text]; ok {
			return nil
		}
		p, err := parseDOMPath(text)
		if err != nil {
			return err
		}
		paths[text] = p
		return nil
	}
	for i := range tmpls {
		t := &tmpls[i]
		switch {
		case t.kind == kindPath:
			for _, v := range t.variants() {
				if err := add(v); err != nil {
					return nil, err
				}
			}
		case t.countPath != "":
			if err := add(t.countPath); err != nil {
				return nil, err
			}
		}
	}
	e := &expectations{base: len(c.base), prefix: map[string][]int{}}
	total := len(c.base) + len(c.extra)
	for text := range paths {
		e.prefix[text] = make([]int, 1, total+1)
	}
	for _, docs := range [][]document{c.base, c.extra} {
		for _, d := range docs {
			tree, err := xmltree.ParseWith(d.xml, xmltree.Options{ExternalDTD: c.dtd})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			for text, p := range paths {
				pre := e.prefix[text]
				e.prefix[text] = append(pre, pre[len(pre)-1]+p.count(tree.Root))
			}
		}
	}
	return e, nil
}

// rows returns the expected row count of a path over documents with ids
// in (after, upTo].
func (e *expectations) rows(path string, after, upTo int) int {
	pre := e.prefix[path]
	return pre[upTo] - pre[after]
}
