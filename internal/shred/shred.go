// Package shred implements the paper's §5 data-loading algorithm: it
// traverses the DOM tree of an XML document and downloads the data items
// into the relational tables of the ER mapping, maintaining the ordering
// metadata (ordinal columns), group-instance numbers, mixed-content text
// chunks, and ID/IDREF resolution the paper's metadata design calls for.
//
// Children of an element are assigned to relationship instances by
// deriving the child-element sequence against the step-1 (grouped)
// content model, so every NESTED_GROUP instance — including groups
// nested inside groups, which surface as virtual entities — is
// identified exactly. The traversal stages a document's rows; the
// document then reaches the engine as one atomic multi-table batch laid
// out parents before children, so the engine's foreign-key enforcement
// can stay on during loading.
package shred

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlrdb/internal/cmodel"
	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/er"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/rel"
	"xmlrdb/internal/xmltree"
)

// MultiBatchEngine is the storage surface the loader writes through
// (satisfied by *engine.DB): per-table row batches applied as one atomic
// unit. Every document reaches the engine as exactly one such call — on
// a durable engine that is one write-ahead-log frame and one fsync, so a
// document is stored whole or not at all, and a crash loses only
// in-flight documents, never part of one.
type MultiBatchEngine interface {
	// InsertBatchMulti atomically appends per-table batches in slice
	// order.
	InsertBatchMulti(tables []string, batches [][][]any) (int, error)
}

// Scanner is the read surface ResumeFrom needs (satisfied by
// *engine.DB).
type Scanner interface {
	// TableNames returns the stored tables.
	TableNames() []string
	// ScanTable visits every live row; returning false stops the scan.
	ScanTable(name string, fn func(row []any) bool) error
}

// Loader shreds documents conforming to one mapped DTD into an engine
// database. It is safe for concurrent use: LoadDocument and LoadCorpus
// may be called from multiple goroutines at once — document and
// per-entity row ids come from atomic counters, and all other loader
// state is immutable after NewLoader.
type Loader struct {
	res     *core.Result
	mapping *ermap.Mapping
	db      MultiBatchEngine

	groupBody map[string]*dtd.Particle
	groupRel  map[string]*core.Rel
	nestedRel map[string]map[string]*core.Rel
	refRels   map[string][]*core.Rel
	distilled map[string]map[string]bool

	// defs and flushOrder lay a staged document out as batches: defs maps
	// table names to their schemas; flushOrder is a parents-before-
	// children table order, nil when the FK graph is cyclic.
	defs       map[string]*rel.Table
	flushOrder []string

	nextID  map[string]*atomic.Int64
	nextDoc atomic.Int64

	// obsM and tracer are the observability hooks: per-document shred
	// time, row counts, flush fallbacks and corpus worker utilization.
	// Both nil by default; set before concurrent use.
	obsM   *obs.Metrics
	tracer obs.Tracer
}

// SetObserver attaches a metrics hub and tracer (either may be nil).
// Attach before loading concurrently.
func (l *Loader) SetObserver(m *obs.Metrics, tr obs.Tracer) {
	l.obsM = m
	l.tracer = tr
}

// Stats reports what one document contributed.
type Stats struct {
	// DocID is the assigned document number.
	DocID int64
	// Elements, RelRows, RefRows and TextChunks count inserted rows.
	Elements, RelRows, RefRows, TextChunks int
}

// NewLoader builds a loader for a mapping. The engine database must
// already contain the mapping's schema.
func NewLoader(res *core.Result, m *ermap.Mapping, db MultiBatchEngine) (*Loader, error) {
	l := &Loader{
		res:       res,
		mapping:   m,
		db:        db,
		groupBody: make(map[string]*dtd.Particle),
		groupRel:  make(map[string]*core.Rel),
		nestedRel: make(map[string]map[string]*core.Rel),
		refRels:   make(map[string][]*core.Rel),
		distilled: make(map[string]map[string]bool),
		defs:      make(map[string]*rel.Table, len(m.Schema.Tables)),
		nextID:    make(map[string]*atomic.Int64, len(m.Entities)),
	}
	for name := range m.Entities {
		l.nextID[name] = new(atomic.Int64)
	}
	for _, t := range m.Schema.Tables {
		l.defs[t.Name] = t
	}
	l.flushOrder = flushOrderFor(m.Schema)
	relByParticle := make(map[*dtd.Particle]*core.Rel)
	for _, r := range res.Converted.Rels {
		switch r.Kind {
		case er.RelNestedGroup:
			relByParticle[r.Particle] = r
		case er.RelNested:
			if l.nestedRel[r.Parent] == nil {
				l.nestedRel[r.Parent] = make(map[string]*core.Rel)
			}
			l.nestedRel[r.Parent][r.Child] = r
		case er.RelReference:
			l.refRels[r.Parent] = append(l.refRels[r.Parent], r)
		}
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		l.groupBody[g.Name] = g.Particle
		r := relByParticle[g.Particle]
		if r == nil {
			return nil, fmt.Errorf("shred: group %s has no relationship declaration", g.Name)
		}
		l.groupRel[g.Name] = r
	}
	for _, e := range res.Metadata.Distilled {
		if l.distilled[e.Parent] == nil {
			l.distilled[e.Parent] = make(map[string]bool)
		}
		l.distilled[e.Parent][e.Attr] = true
	}
	return l, nil
}

// ResumeFrom seeds the loader's document and per-entity id counters
// from rows already stored in db, so documents loaded after reopening a
// durable database continue the id sequences instead of colliding with
// recovered rows. Call it once, before loading.
func (l *Loader) ResumeFrom(db Scanner) error {
	stored := make(map[string]bool)
	for _, name := range db.TableNames() {
		stored[name] = true
	}
	maxOf := func(table, col string) (int64, error) {
		def := l.defs[table]
		if def == nil || !stored[table] {
			return 0, nil
		}
		_, pos := def.Column(col)
		if pos < 0 {
			return 0, nil
		}
		var max int64
		err := db.ScanTable(table, func(row []any) bool {
			if v, ok := row[pos].(int64); ok && v > max {
				max = v
			}
			return true
		})
		return max, err
	}
	// Every mapped table carries the document number; taking the global
	// maximum works with or without the x_docs system table.
	var maxDoc int64
	for name := range l.defs {
		v, err := maxOf(name, "doc")
		if err != nil {
			return fmt.Errorf("shred: resume: %w", err)
		}
		if v > maxDoc {
			maxDoc = v
		}
	}
	if maxDoc > l.nextDoc.Load() {
		l.nextDoc.Store(maxDoc)
	}
	for entity, ctr := range l.nextID {
		v, err := maxOf(l.mapping.EntityTable(entity), "id")
		if err != nil {
			return fmt.Errorf("shred: resume: %w", err)
		}
		if v > ctr.Load() {
			ctr.Store(v)
		}
	}
	return nil
}

// LoadXML parses and loads one document given as XML text.
func (l *Loader) LoadXML(src, name string) (Stats, error) {
	doc, err := xmltree.ParseWith(src, xmltree.Options{ExternalDTD: l.res.Original})
	if err != nil {
		return Stats{}, fmt.Errorf("shred: %w", err)
	}
	return l.LoadDocument(doc, name)
}

// LoadDocument shreds one parsed document: the traversal stages every
// row, then the whole document goes to the engine as one atomic
// multi-table batch. Constraint violations therefore surface at the end
// of the document rather than mid-traversal, and a failed document
// leaves nothing behind.
func (l *Loader) LoadDocument(doc *xmltree.Document, name string) (Stats, error) {
	start := time.Now()
	st, err := l.load(doc, name)
	l.observeDoc(name, start, st, err)
	return st, err
}

// observeDoc records one document load into the metrics and tracer.
func (l *Loader) observeDoc(name string, start time.Time, st Stats, err error) {
	if l.obsM == nil && l.tracer == nil {
		return
	}
	d := time.Since(start)
	rows := st.Elements + st.RelRows + st.RefRows + st.TextChunks
	if l.obsM != nil {
		if err != nil {
			l.obsM.DocsFailed.Inc()
		} else {
			l.obsM.DocsLoaded.Inc()
			l.obsM.ShredLatency.ObserveDuration(d)
			l.obsM.DocRows.Observe(int64(rows))
		}
	}
	if l.tracer != nil {
		ev := obs.Event{Scope: "shred", Name: "document", Detail: name, Dur: d,
			Attrs: []obs.Attr{{Key: "rows", Val: rows}}}
		if err != nil {
			ev.Err = err.Error()
		}
		l.tracer.Emit(ev)
	}
}

// load stages one document and commits it with a single InsertBatchMulti
// call: one batch per table in parents-before-children order, or — when
// the FK graph is cyclic (the fold strategy over mutually recursive
// element types) — one batch per run in exact document order.
func (l *Loader) load(doc *xmltree.Document, name string) (Stats, error) {
	if doc.Root == nil {
		return Stats{}, fmt.Errorf("shred: document %q has no root element", name)
	}
	st := &docState{
		l:       l,
		stg:     stagedBatch{defs: l.defs},
		ids:     make(map[string][2]any),
		deriver: cmodel.NewDeriver(func(n string) *dtd.Particle { return l.groupBody[n] }),
	}
	st.docID = l.allocDoc()
	rootID, err := st.element(doc.Root, nil)
	if err != nil {
		return Stats{}, fmt.Errorf("shred: document %q: %w", name, err)
	}
	if err := st.resolveRefs(); err != nil {
		return Stats{}, fmt.Errorf("shred: document %q: %w", name, err)
	}
	if err := st.stg.stage("x_docs", []any{st.docID, name, doc.Root.Name, rootID}); err != nil {
		return Stats{}, err
	}
	if l.flushOrder == nil && l.obsM != nil {
		l.obsM.FlushFallbacks.Inc()
	}
	tables, batches := st.stg.plan(l.flushOrder)
	if _, err := l.db.InsertBatchMulti(tables, batches); err != nil {
		return Stats{}, fmt.Errorf("shred: document %q: %w", name, err)
	}
	st.stats.DocID = st.docID
	return st.stats, nil
}

// LoadCorpus is LoadDocument over many documents with a pool of workers
// (workers <= 0 uses GOMAXPROCS): each worker loads one document at a
// time, so the engine's foreign-key enforcement stays on throughout.
// Document i is registered under the name "doc-i". It returns the
// per-document stats in input order; on error the corpus may be
// partially loaded (whole documents only). Failures carry per-document
// context: the error is a *CorpusError whose Docs list each failed
// document's index, name and cause.
func (l *Loader) LoadCorpus(docs []*xmltree.Document, workers int) ([]Stats, error) {
	return l.LoadCorpusNamed(docs, nil, workers)
}

// LoadCorpusNamed is LoadCorpus with explicit document names; names may
// be nil or shorter than docs, in which case document i falls back to
// "doc-i".
func (l *Loader) LoadCorpusNamed(docs []*xmltree.Document, names []string, workers int) ([]Stats, error) {
	return l.LoadCorpusContext(context.Background(), docs, names, workers)
}

// LoadCorpusContext is LoadCorpusNamed with cancellation: when ctx is
// cancelled no further documents start (in-flight ones finish whole)
// and the context's error is returned unless a document failure already
// occurred. A panic inside a per-document worker is recovered and
// reported as that document's *DocError instead of taking the process
// down.
func (l *Loader) LoadCorpusContext(ctx context.Context, docs []*xmltree.Document, names []string, workers int) ([]Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	stats := make([]Stats, len(docs))
	jobs := make(chan int)
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		docErrs []*DocError
		failed  atomic.Bool
		busy    atomic.Int64
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() || ctx.Err() != nil {
					continue
				}
				name := fmt.Sprintf("doc-%d", i)
				if i < len(names) && names[i] != "" {
					name = names[i]
				}
				t0 := time.Now()
				st, err := l.loadGuard(docs[i], name)
				busy.Add(int64(time.Since(t0)))
				if err != nil {
					failed.Store(true)
					errMu.Lock()
					docErrs = append(docErrs, &DocError{Index: i, Name: name, Err: err})
					errMu.Unlock()
					continue
				}
				stats[i] = st
			}
		}()
	}
feed:
	for i := range docs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	if l.obsM != nil && workers > 0 {
		l.obsM.CorpusRuns.Inc()
		l.obsM.WorkerBusy.Add(busy.Load())
		l.obsM.WorkerCapacity.Add(int64(wall) * int64(workers))
	}
	if l.tracer != nil {
		util := 0.0
		if wall > 0 && workers > 0 {
			util = float64(busy.Load()) / (float64(wall) * float64(workers))
		}
		ev := obs.Event{Scope: "shred", Name: "corpus", Dur: wall, Attrs: []obs.Attr{
			{Key: "docs", Val: len(docs)},
			{Key: "workers", Val: workers},
			{Key: "failed", Val: len(docErrs)},
			{Key: "utilization", Val: fmt.Sprintf("%.2f", util)},
		}}
		l.tracer.Emit(ev)
	}
	if len(docErrs) > 0 {
		sort.Slice(docErrs, func(i, j int) bool { return docErrs[i].Index < docErrs[j].Index })
		return stats, &CorpusError{Docs: docErrs}
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	return stats, nil
}

// loadGuard is LoadDocument behind a panic fence: a shredder bug or a
// nil document surfaces as an error on that document, not a crash of
// the whole corpus load.
func (l *Loader) loadGuard(doc *xmltree.Document, name string) (st Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st = Stats{}
			err = fmt.Errorf("shred: panic loading document %q: %v", name, r)
		}
	}()
	return l.LoadDocument(doc, name)
}

func (l *Loader) allocDoc() int64 {
	return l.nextDoc.Add(1)
}

// allocID returns the next row id of an entity. The counter exists for
// every entity of the mapping; callers check the entity is mapped
// before allocating.
func (l *Loader) allocID(entity string) int64 {
	return l.nextID[entity].Add(1)
}

// foldLink carries the parent reference stored on a child row when its
// nesting relationship was folded (StrategyFoldFK).
type foldLink struct {
	parentID int64
	ord      int
}

type pendingRef struct {
	rel      *core.Rel
	sourceID int64
	value    string
	ord      int
}

type docState struct {
	l       *Loader
	stg     stagedBatch
	docID   int64
	deriver *cmodel.Deriver
	ids     map[string][2]any // ID value -> {entity name, row id}
	refs    []pendingRef
	stats   Stats
}

// element loads one element subtree and returns its entity row id. The
// parent row is inserted before any children, with distilled attribute
// values already in place.
func (st *docState) element(el *xmltree.Node, fold *foldLink) (int64, error) {
	l := st.l
	ce := l.res.Converted.Element(el.Name)
	em := l.mapping.Entities[el.Name]
	if ce == nil || em == nil {
		return 0, fmt.Errorf("element type %q is not part of the mapped DTD (at %s)", el.Name, el.Path())
	}
	id := l.allocID(el.Name)
	row := map[string]any{"id": id, "doc": st.docID}
	if fold != nil {
		row["parent"] = fold.parentID
		row["ord"] = int64(fold.ord)
	}

	// XML attributes (including DTD defaults applied by the parser).
	refByAttr := make(map[string]*core.Rel)
	for _, r := range l.refRels[el.Name] {
		refByAttr[r.ViaAttr] = r
	}
	declaredID, _ := l.res.Original.IDAttr(el.Name)
	for _, a := range el.Attrs {
		if r, isRef := refByAttr[a.Name]; isRef {
			toks := []string{a.Value}
			if r.Multiple {
				toks = strings.Fields(a.Value)
			}
			for i, tok := range toks {
				st.refs = append(st.refs, pendingRef{rel: r, sourceID: id, value: tok, ord: i})
			}
			continue
		}
		col, known := em.AttrCols[a.Name]
		if !known {
			return 0, fmt.Errorf("attribute %q of %q is not declared (at %s)", a.Name, el.Name, el.Path())
		}
		row[col] = a.Value
		if a.Name == declaredID {
			if _, dup := st.ids[a.Value]; dup {
				return 0, fmt.Errorf("duplicate ID %q (at %s)", a.Value, el.Path())
			}
			st.ids[a.Value] = [2]any{el.Name, id}
		}
	}

	// Derive element content and fill distilled attribute values before
	// the row is inserted.
	var deriv *cmodel.Deriv
	var children []*xmltree.Node
	switch ce.Kind {
	case core.ConvEmpty:
		if el.HasElementChildren() || strings.TrimSpace(el.Text()) != "" {
			return 0, fmt.Errorf("element %q is declared EMPTY but has content (at %s)", el.Name, el.Path())
		}
	case core.ConvAny:
		row["raw"] = innerXML(el)
	case core.ConvPCData:
		if el.HasElementChildren() {
			return 0, fmt.Errorf("element %q is (#PCDATA) but has element children (at %s)", el.Name, el.Path())
		}
		row["txt"] = el.Text()
	case core.ConvBare:
		if ce.MixedText {
			row["txt"] = el.Text()
			break
		}
		if t := strings.TrimSpace(el.DirectText()); t != "" {
			return 0, fmt.Errorf("element %q has element content but contains text %q (at %s)",
				el.Name, t, el.Path())
		}
		decl := l.res.Grouped.Element(el.Name)
		if decl == nil {
			return 0, fmt.Errorf("no grouped declaration for %q", el.Name)
		}
		children = el.ChildElements()
		names := make([]string, len(children))
		for i, c := range children {
			names[i] = c.Name
		}
		var err error
		deriv, err = st.deriver.Derive(decl.Content.Particle, names)
		if err != nil {
			return 0, fmt.Errorf("content of %q does not match its model (at %s): %w", el.Name, el.Path(), err)
		}
		// Distilled values.
		if deriv != nil && len(deriv.Reps) > 0 {
			for _, itemDeriv := range deriv.Reps[0].Children {
				p := itemDeriv.Particle
				if p.Kind == dtd.PKName && l.distilled[el.Name] != nil && l.distilled[el.Name][p.Name] {
					// A distilled child is (#PCDATA) with no declared
					// attributes; only its text has a column to land in.
					for _, rep := range itemDeriv.Reps {
						c := children[rep.Index]
						if len(c.Attrs) > 0 {
							return 0, fmt.Errorf("attribute %q of %q is not declared (at %s)", c.Attrs[0].Name, c.Name, c.Path())
						}
						if c.HasElementChildren() {
							return 0, fmt.Errorf("element %q is (#PCDATA) but has element children (at %s)", c.Name, c.Path())
						}
						row[em.AttrCols[p.Name]] = c.Text()
					}
				}
			}
		}
	}

	if err := st.stg.stageMap(em.Table, row); err != nil {
		return 0, fmt.Errorf("at %s: %w", el.Path(), err)
	}
	st.stats.Elements++

	// Children after the parent row exists.
	switch {
	case ce.Kind == core.ConvBare && ce.MixedText:
		if err := st.mixedContent(el, id); err != nil {
			return 0, err
		}
	case deriv != nil && len(deriv.Reps) > 0:
		nextOrd := len(children)
		for _, itemDeriv := range deriv.Reps[0].Children {
			if err := st.item(el, id, itemDeriv, children, &nextOrd); err != nil {
				return 0, err
			}
		}
	}
	return id, nil
}

// innerXML serializes the children of an element (the stored form of
// ANY content).
func innerXML(el *xmltree.Node) string {
	var b strings.Builder
	for _, c := range el.Children {
		b.WriteString(c.XML())
	}
	return b.String()
}

// mixedContent loads mixed-content children: element children attach to
// the single mixed nested-group relationship; text chunks go to x_text.
// Ordinals number all child nodes so interleaving is preserved.
func (st *docState) mixedContent(el *xmltree.Node, parentID int64) error {
	l := st.l
	var mixRel *core.Rel
	for _, r := range l.res.Converted.RelsOf(el.Name) {
		if r.Kind == er.RelNestedGroup {
			mixRel = r
			break
		}
	}
	for ord, c := range el.Children {
		switch c.Kind {
		case xmltree.TextNode:
			if c.Data == "" {
				continue
			}
			if err := st.stg.stage("x_text", []any{st.docID, el.Name, parentID, ord, c.Data}); err != nil {
				return err
			}
			st.stats.TextChunks++
		case xmltree.ElementNode:
			if mixRel == nil {
				return fmt.Errorf("element %q in mixed content of %q has no relationship (at %s)",
					c.Name, el.Name, el.Path())
			}
			if err := st.loadChild(mixRel, parentID, c, ord, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// item processes one top-level content item: distilled names were
// already consumed; group references and plain nested names load
// children and relationship rows.
func (st *docState) item(el *xmltree.Node, parentID int64, d *cmodel.Deriv, children []*xmltree.Node, nextOrd *int) error {
	l := st.l
	p := d.Particle
	if p.Kind != dtd.PKName {
		return fmt.Errorf("internal: non-name item %s in content of %q after step 1", p, el.Name)
	}
	switch {
	case l.distilled[el.Name] != nil && l.distilled[el.Name][p.Name]:
		return nil // already folded into the parent row
	case l.groupBody[p.Name] != nil:
		rel := l.groupRel[p.Name]
		for grpIdx, rep := range d.Reps {
			if err := st.groupInstance(rel, parentID, rep.Body, children, grpIdx, nextOrd); err != nil {
				return err
			}
		}
		return nil
	default:
		rel := l.nestedRel[el.Name][p.Name]
		if rel == nil {
			return fmt.Errorf("no NESTED relationship for %s/%s", el.Name, p.Name)
		}
		for _, rep := range d.Reps {
			if err := st.loadChild(rel, parentID, children[rep.Index], rep.Index, nil); err != nil {
				return err
			}
		}
		return nil
	}
}

// groupInstance loads one instance of a nested group. Groups nested
// inside the body surface as virtual entity rows.
func (st *docState) groupInstance(rel *core.Rel, parentID int64, body *cmodel.Deriv, children []*xmltree.Node, grpIdx int, nextOrd *int) error {
	l := st.l
	var walk func(d *cmodel.Deriv) error
	walk = func(d *cmodel.Deriv) error {
		p := d.Particle
		if p.Kind == dtd.PKName {
			if l.groupBody[p.Name] != nil {
				innerRel := l.groupRel[p.Name]
				for innerIdx, rep := range d.Reps {
					ord := ordOfBody(rep.Body, nextOrd)
					vid, err := st.virtualEntity(rel, p.Name, parentID, ord, groupVal(rel, grpIdx))
					if err != nil {
						return err
					}
					if err := st.groupInstance(innerRel, vid, rep.Body, children, innerIdx, nextOrd); err != nil {
						return err
					}
				}
				return nil
			}
			for _, rep := range d.Reps {
				if err := st.loadChild(rel, parentID, children[rep.Index], rep.Index, groupVal(rel, grpIdx)); err != nil {
					return err
				}
			}
			return nil
		}
		for _, rep := range d.Reps {
			for _, c := range rep.Children {
				if err := walk(c); err != nil {
					return err
				}
			}
			if rep.Chosen != nil {
				if err := walk(rep.Chosen); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(body)
}

// loadChild loads one child element and links it to the relationship —
// via a junction row, or via parent columns on the child when folded.
func (st *docState) loadChild(rel *core.Rel, parentID int64, child *xmltree.Node, ord int, grp any) error {
	l := st.l
	rm := l.mapping.Rels[rel.Name]
	if rm == nil {
		return fmt.Errorf("internal: relationship %q has no mapping", rel.Name)
	}
	if rm.Folded {
		_, err := st.element(child, &foldLink{parentID: parentID, ord: ord})
		return err
	}
	childID, err := st.element(child, nil)
	if err != nil {
		return err
	}
	vals := map[string]any{
		"doc": st.docID, "parent": parentID, "child": childID, "ord": int64(ord),
	}
	if !rm.SingleTarget {
		vals["target"] = child.Name
	}
	if grp != nil {
		vals["grp"] = grp
	}
	if err := st.stg.stageMap(rm.Table, vals); err != nil {
		return err
	}
	st.stats.RelRows++
	return nil
}

// virtualEntity inserts a row for a virtual (group) entity instance and
// links it to its enclosing relationship.
func (st *docState) virtualEntity(rel *core.Rel, entity string, parentID int64, ord int, grp any) (int64, error) {
	l := st.l
	em := l.mapping.Entities[entity]
	if em == nil {
		return 0, fmt.Errorf("internal: no entity for virtual group %q", entity)
	}
	rm := l.mapping.Rels[rel.Name]
	vid := l.allocID(entity)
	row := map[string]any{"id": vid, "doc": st.docID}
	if rm != nil && rm.Folded {
		row["parent"] = parentID
		row["ord"] = int64(ord)
	}
	if err := st.stg.stageMap(em.Table, row); err != nil {
		return 0, err
	}
	st.stats.Elements++
	if rm != nil && !rm.Folded {
		vals := map[string]any{
			"doc": st.docID, "parent": parentID, "child": vid, "ord": int64(ord),
		}
		if !rm.SingleTarget {
			vals["target"] = entity
		}
		if grp != nil {
			vals["grp"] = grp
		}
		if err := st.stg.stageMap(rm.Table, vals); err != nil {
			return 0, err
		}
		st.stats.RelRows++
	}
	return vid, nil
}

// groupVal returns the grp column value for relationships that track
// group instances, nil otherwise.
func groupVal(rel *core.Rel, grpIdx int) any {
	if rel.Kind == er.RelNestedGroup && rel.GroupOcc.Repeatable() {
		return int64(grpIdx)
	}
	return nil
}

// ordOfBody picks the ordinal for a virtual group row: the first
// document position it covers, or a fresh ordinal past the real
// children when the instance matched nothing.
func ordOfBody(body *cmodel.Deriv, nextOrd *int) int {
	if idxs := body.Indexes(); len(idxs) > 0 {
		return idxs[0]
	}
	ord := *nextOrd
	*nextOrd++
	return ord
}

// resolveRefs resolves and inserts the document's pending IDREF rows.
func (st *docState) resolveRefs() error {
	l := st.l
	for _, ref := range st.refs {
		rm := l.mapping.Rels[ref.rel.Name]
		vals := map[string]any{
			"doc": st.docID, "source": ref.sourceID,
			"refvalue": ref.value, "ord": int64(ref.ord),
		}
		if hit, ok := st.ids[ref.value]; ok {
			vals["target_type"] = hit[0]
			vals["target"] = hit[1]
		}
		if err := st.stg.stageMap(rm.Table, vals); err != nil {
			return err
		}
		st.stats.RefRows++
	}
	return nil
}

// stagedBatch buffers a document's rows as runs of consecutive
// same-table rows, in exact traversal order, so a whole document is
// shredded without touching the shared database.
type stagedBatch struct {
	defs map[string]*rel.Table
	runs []stagedRun
}

type stagedRun struct {
	table string
	rows  [][]any
}

// stage appends one row given in column order.
func (s *stagedBatch) stage(table string, row []any) error {
	def := s.defs[table]
	if def == nil {
		return fmt.Errorf("shred: no such table %q", table)
	}
	if len(row) != len(def.Columns) {
		return fmt.Errorf("shred: table %q expects %d values, got %d",
			table, len(def.Columns), len(row))
	}
	s.add(table, row)
	return nil
}

// stageMap appends one row given as column->value; omitted columns are
// NULL.
func (s *stagedBatch) stageMap(table string, vals map[string]any) error {
	def := s.defs[table]
	if def == nil {
		return fmt.Errorf("shred: no such table %q", table)
	}
	row := make([]any, len(def.Columns))
	for k, v := range vals {
		_, pos := def.Column(k)
		if pos < 0 {
			return fmt.Errorf("shred: table %q has no column %q", table, k)
		}
		row[pos] = v
	}
	s.add(table, row)
	return nil
}

func (s *stagedBatch) add(table string, row []any) {
	if n := len(s.runs); n > 0 && s.runs[n-1].table == table {
		s.runs[n-1].rows = append(s.runs[n-1].rows, row)
		return
	}
	s.runs = append(s.runs, stagedRun{table: table, rows: [][]any{row}})
}

// plan lays the staged runs out as the batches of one InsertBatchMulti
// call: one batch per table in the given order, or one per run in
// document order when no order exists.
func (s *stagedBatch) plan(order []string) (tables []string, batches [][][]any) {
	if order == nil {
		for _, run := range s.runs {
			tables = append(tables, run.table)
			batches = append(batches, run.rows)
		}
		return tables, batches
	}
	byTable := make(map[string][][]any, len(s.runs))
	for _, run := range s.runs {
		byTable[run.table] = append(byTable[run.table], run.rows...)
	}
	for _, table := range order {
		rows := byTable[table]
		if len(rows) == 0 {
			continue
		}
		tables = append(tables, table)
		batches = append(batches, rows)
	}
	return tables, batches
}

// flushOrderFor computes a parents-before-children flush order over the
// schema: every table appears after the tables its foreign keys
// reference (self references are fine — within a table, document order
// already puts parents first). It returns nil when the FK graph is
// cyclic; documents then commit as runs in document order.
func flushOrderFor(s *rel.Schema) []string {
	index := make(map[string]int, len(s.Tables))
	for i, t := range s.Tables {
		index[t.Name] = i
	}
	indeg := make([]int, len(s.Tables))
	dependents := make([][]int, len(s.Tables))
	for i, t := range s.Tables {
		seen := make(map[int]bool, len(t.ForeignKeys))
		for _, fk := range t.ForeignKeys {
			j, ok := index[fk.RefTable]
			if !ok || j == i || seen[j] {
				continue
			}
			seen[j] = true
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]string, 0, len(s.Tables))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, s.Tables[i].Name)
		for _, j := range dependents[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != len(s.Tables) {
		return nil
	}
	return order
}
