// Package experiments implements the paper's evaluation suite (see
// DESIGN.md §4): the exact reproduction of Examples 1–2 and Figures 1–2,
// plus the quantitative comparisons the paper defers to future work —
// schema size, loading throughput, query cost and latency, round-trip
// fidelity, reconstruction cost, and the ablations of the design choices
// (attribute distilling, ordering metadata, indexes). The cmd/xmlbench
// binary and the repository's testing.B benchmarks both drive this
// package.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"xmlrdb/internal/baselines"
	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/reconstruct"
	"xmlrdb/internal/shred"
	"xmlrdb/internal/wgen"
	"xmlrdb/internal/xmltree"
)

// Table is one experiment's result in the row/column form the harness
// prints.
type Table struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Header names the columns.
	Header []string
	// Rows holds the data.
	Rows [][]string
	// Notes are printed after the table (expected shapes, caveats).
	Notes []string
	// Text replaces the tabular form for textual artifacts (E1/E2).
	Text string
	// JSON, when set, is the experiment's machine-readable result;
	// cmd/xmlbench -json marshals it alongside the rendered rows.
	JSON any
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Text != "" {
		b.WriteString(t.Text)
	}
	if len(t.Header) > 0 {
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, strings.Join(t.Header, "\t"))
		for _, r := range t.Rows {
			fmt.Fprintln(w, strings.Join(r, "\t"))
		}
		w.Flush()
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// Runner is a registered experiment.
type Runner struct {
	// ID is the experiment identifier `xmlbench -exp` takes.
	ID string
	// Title describes it.
	Title string
	// Run executes it. Seed fixes all randomness.
	Run func(seed int64) (*Table, error)
}

// All returns the experiments in order.
func All() []Runner {
	return []Runner{
		{"e1", "Example 2: converted DTD (golden reproduction)", E1},
		{"e2", "Figure 2: ER diagram inventory (golden reproduction)", E2},
		{"e3", "mapping time vs DTD size (Figure-1 pipeline cost)", E3},
		{"e4", "schema size per mapping (tables / columns / FKs)", E4},
		{"e5", "loading throughput per mapping", E5},
		{"e5b", "parallel bulk-load scaling (worker sweep)", E5b},
		{"e6", "query latency vs path depth per mapping", E6},
		{"e6b", "EXPLAIN plan stats: joins emitted vs avoided (er mapping)", E6b},
		{"e7", "round-trip fidelity, with and without ordering metadata", E7},
		{"e7b", "crash recovery cost vs snapshot interval (durable store)", E7b},
		{"e8", "reconstruction time vs document size", E8},
		{"e8b", "served path-query throughput/latency: plan cache on vs off", E8b},
		{"e9", "joins per query class per mapping ([SHT+99] comparison)", E9},
		{"e10", "ablation: attribute distilling (step 2) on/off", E10},
		{"e11", "ablation: secondary index on IDREF point queries", E11},
		{"e12", "storage footprint per mapping", E12},
		{"e14", "vectorized execution: batched + dictionary vs row-at-a-time", E14},
		{"e15", "request-tracing overhead: off vs sampled vs full", E15},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// E1 reproduces the paper's Example 2 and checks it byte for byte.
func E1(seed int64) (*Table, error) {
	res, err := core.Map(dtd.MustParse(paper.Example1DTD))
	if err != nil {
		return nil, err
	}
	got := res.Converted.String()
	t := &Table{ID: "E1", Title: "converted DTD (paper Example 2)", Text: got}
	if got == paper.Example2Converted {
		t.Notes = append(t.Notes, "MATCHES the paper's Example 2 exactly")
	} else {
		t.Notes = append(t.Notes, "MISMATCH against the paper's Example 2")
	}
	return t, nil
}

// E2 reproduces the Figure 2 inventory.
func E2(seed int64) (*Table, error) {
	res, err := core.Map(dtd.MustParse(paper.Example1DTD))
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "E2", Title: "ER diagram (paper Figure 2)", Text: res.Model.Inventory()}
	var entities, rels []string
	for _, e := range res.Model.Entities {
		entities = append(entities, e.Name)
	}
	for _, r := range res.Model.Relationships {
		rels = append(rels, r.Name)
	}
	sort.Strings(rels)
	wantRels := append([]string(nil), paper.Figure2Relationships...)
	sort.Strings(wantRels)
	if strings.Join(entities, " ") == strings.Join(paper.Figure2Entities, " ") &&
		strings.Join(rels, " ") == strings.Join(wantRels, " ") {
		t.Notes = append(t.Notes, "entity and relationship inventory MATCHES Figure 2")
	} else {
		t.Notes = append(t.Notes, "inventory MISMATCH against Figure 2")
	}
	return t, nil
}

// E3 measures mapping time against DTD size.
func E3(seed int64) (*Table, error) {
	t := &Table{
		ID: "E3", Title: "mapping time vs DTD size",
		Header: []string{"element types", "groups", "map time", "entities", "relationships"},
		Notes:  []string{"expected shape: near-linear growth in DTD size"},
	}
	for _, n := range []int{10, 25, 50, 100, 250, 500} {
		d := wgen.GenerateDTD(wgen.DTDConfig{
			Elements: n, Seed: seed + int64(n), AttrsPerElement: 2,
			IDProb: 0.2, IDREFProb: 0.2, OptionalProb: 0.3, RepeatProb: 0.3,
			ChoiceProb: 0.4, Levels: 6,
		})
		start := time.Now()
		const reps = 5
		var res *core.Result
		var err error
		for i := 0; i < reps; i++ {
			res, err = core.Map(d)
			if err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start) / reps
		st := d.ComputeStats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(st.ElementTypes), fmt.Sprint(st.Groups),
			elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(len(res.Model.Entities)), fmt.Sprint(len(res.Model.Relationships)),
		})
	}
	return t, nil
}

// suite returns the DTD families every comparative experiment sweeps.
func suite(seed int64) []struct {
	name string
	d    *dtd.DTD
} {
	return []struct {
		name string
		d    *dtd.DTD
	}{
		{"paper", dtd.MustParse(paper.Example1DTD)},
		{"flat-wide", wgen.GenerateDTD(wgen.DTDConfig{
			Elements: 40, Levels: 2, MaxChildren: 8, Seed: seed + 1,
			AttrsPerElement: 3, PCDataRatio: 0.9, OptionalProb: 0.2, RepeatProb: 0.3})},
		{"deep", wgen.GenerateDTD(wgen.DTDConfig{
			Elements: 40, Levels: 8, MaxChildren: 2, Seed: seed + 2,
			AttrsPerElement: 1, OptionalProb: 0.2, RepeatProb: 0.2})},
		{"choice-heavy", wgen.GenerateDTD(wgen.DTDConfig{
			Elements: 40, Levels: 4, MaxChildren: 5, ChoiceProb: 0.9, Seed: seed + 3,
			OptionalProb: 0.3, RepeatProb: 0.3})},
		{"ref-heavy", wgen.GenerateDTD(wgen.DTDConfig{
			Elements: 40, Levels: 4, MaxChildren: 3, Seed: seed + 4,
			IDProb: 0.6, IDREFProb: 0.6, AttrsPerElement: 1,
			OptionalProb: 0.2, RepeatProb: 0.3})},
	}
}

// E4 compares schema sizes across mappings and DTD families.
func E4(seed int64) (*Table, error) {
	t := &Table{
		ID: "E4", Title: "schema size per mapping",
		Header: []string{"dtd", "mapping", "tables", "columns", "fks"},
		Notes: []string{
			"expected shape: edge/universal constant; basic > shared >= hybrid; er-junction > er-fold",
		},
	}
	for _, s := range suite(seed) {
		maps, err := baselines.All(s.d)
		if err != nil {
			return nil, err
		}
		for _, m := range maps {
			st := m.Schema().ComputeStats()
			t.Rows = append(t.Rows, []string{
				s.name, m.Name(), fmt.Sprint(st.Tables), fmt.Sprint(st.Columns), fmt.Sprint(st.ForeignKeys),
			})
		}
	}
	return t, nil
}

// corpusFor generates a deterministic corpus for a DTD.
func corpusFor(d *dtd.DTD, n int, seed int64) ([]*xmltree.Document, error) {
	return wgen.Corpus(d, n, seed, wgen.DocConfig{MaxRepeat: 3})
}

// E5 measures loading throughput per mapping.
func E5(seed int64) (*Table, error) {
	t := &Table{
		ID: "E5", Title: "loading throughput per mapping (200 synthetic documents)",
		Header: []string{"dtd", "mapping", "docs", "rows", "elapsed", "docs/s"},
		Notes: []string{
			"expected shape: edge loads fastest per doc (no derivation); er pays content derivation; inline variants write fewest rows",
		},
	}
	before := snap()
	for _, s := range suite(seed) {
		docs, err := corpusFor(s.d, 200, seed)
		if err != nil {
			return nil, err
		}
		maps, err := baselines.All(s.d)
		if err != nil {
			return nil, err
		}
		for _, m := range maps {
			db, err := openDB(m.Schema())
			if err != nil {
				return nil, err
			}
			rows := 0
			start := time.Now()
			for i, doc := range docs {
				st, err := m.Load(db, doc, fmt.Sprintf("d%d", i))
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", s.name, m.Name(), err)
				}
				rows += st.Rows
			}
			elapsed := time.Since(start)
			perSec := float64(len(docs)) / elapsed.Seconds()
			t.Rows = append(t.Rows, []string{
				s.name, m.Name(), fmt.Sprint(len(docs)), fmt.Sprint(rows),
				elapsed.Round(time.Millisecond).String(), fmt.Sprintf("%.0f", perSec),
			})
		}
	}
	metricsNote(t, before)
	return t, nil
}

// E5bWorkers is the worker sweep E5b runs; cmd/xmlbench -workers
// replaces it with {1, N} to measure one specific count against the
// one-worker baseline.
var E5bWorkers = []int{1, 2, 4, 8}

// E5b measures parallel bulk-load scaling: the §5 loader over the er
// mapping, one corpus per DTD family, swept across worker counts. Each
// worker stages a whole document and commits it as one multi-table
// batch, so contention is per-table locks rather than one global mutex.
func E5b(seed int64) (*Table, error) {
	t := &Table{
		ID: "E5b", Title: "parallel bulk-load scaling (er mapping, 200 synthetic documents)",
		Header: []string{"dtd", "workers", "docs", "rows", "elapsed", "docs/s", "speedup"},
		Notes: []string{
			"expected shape: near-linear speedup while workers <= physical cores; one batch per document keeps lock acquisitions per document constant",
		},
	}
	before := snap()
	for _, s := range suite(seed)[:2] { // paper + flat-wide keep the sweep affordable
		docs, err := corpusFor(s.d, 200, seed)
		if err != nil {
			return nil, err
		}
		var base float64
		for _, w := range E5bWorkers {
			res, err := core.Map(s.d)
			if err != nil {
				return nil, err
			}
			m, err := ermap.Build(res.Model, ermap.Options{})
			if err != nil {
				return nil, err
			}
			db, err := openDB(m.Schema)
			if err != nil {
				return nil, err
			}
			loader, err := shred.NewLoader(res, m, db)
			if err != nil {
				return nil, err
			}
			observeLoader(loader)
			start := time.Now()
			sts, err := loader.LoadCorpus(docs, w)
			if err != nil {
				return nil, fmt.Errorf("%s/workers=%d: %w", s.name, w, err)
			}
			elapsed := time.Since(start)
			rows := 0
			for _, st := range sts {
				rows += st.Elements + st.RelRows + st.RefRows + st.TextChunks
			}
			secs := elapsed.Seconds()
			if base == 0 {
				base = secs
			}
			t.Rows = append(t.Rows, []string{
				s.name, fmt.Sprint(w), fmt.Sprint(len(docs)), fmt.Sprint(rows),
				elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", float64(len(docs))/secs),
				fmt.Sprintf("%.2fx", base/secs),
			})
		}
	}
	if Observe != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"metrics: cumulative worker utilization=%.2f (busy/capacity across the sweep)",
			Observe.Snapshot().WorkerUtilization()))
	}
	metricsNote(t, before)
	return t, nil
}

// deepPathDTD builds the fixed-depth chain DTD used by E6: a spine
// c1/c2/.../c8 with attributes, so path queries of any depth up to 8
// exist in every mapping.
func deepPathDTD(levels int) *dtd.DTD {
	var b strings.Builder
	for i := 1; i <= levels; i++ {
		if i < levels {
			// Repeated child keeps every level a separate relation under
			// inlining, isolating join depth as the variable.
			fmt.Fprintf(&b, "<!ELEMENT c%d (c%d+)>\n", i, i+1)
		} else {
			fmt.Fprintf(&b, "<!ELEMENT c%d (#PCDATA)>\n", i)
		}
		fmt.Fprintf(&b, "<!ATTLIST c%d k CDATA #IMPLIED>\n", i)
	}
	return dtd.MustParse(b.String())
}

// deepPathDocs generates documents for the chain DTD with the given
// fanout per level.
func deepPathDocs(levels, fanout, n int) []*xmltree.Document {
	docs := make([]*xmltree.Document, 0, n)
	for di := 0; di < n; di++ {
		var build func(level int) *xmltree.Node
		build = func(level int) *xmltree.Node {
			el := xmltree.NewElement(fmt.Sprintf("c%d", level))
			el.SetAttr("k", fmt.Sprintf("v%d", di))
			if level == levels {
				el.AppendText("leaf")
				return el
			}
			for f := 0; f < fanout; f++ {
				el.AppendChild(build(level + 1))
			}
			return el
		}
		root := build(1)
		docs = append(docs, &xmltree.Document{Root: root, Children: []*xmltree.Node{root}})
	}
	return docs
}

// E6 measures query latency against path depth for every mapping.
func E6(seed int64) (*Table, error) {
	const levels = 6
	d := deepPathDTD(levels)
	docs := deepPathDocs(levels, 2, 30)
	t := &Table{
		ID: "E6", Title: "query latency vs path depth (chain DTD, 30 docs, fanout 2)",
		Header: []string{"depth", "mapping", "joins", "rows", "latency"},
		Notes: []string{
			"expected shape: every mapping's cost grows with depth; edge grows fastest (self-join per step)",
		},
	}
	before := snap()
	maps, err := baselines.All(d)
	if err != nil {
		return nil, err
	}
	for _, m := range maps {
		db, err := openDB(m.Schema())
		if err != nil {
			return nil, err
		}
		for i, doc := range docs {
			if _, err := m.Load(db, doc, fmt.Sprintf("d%d", i)); err != nil {
				return nil, fmt.Errorf("%s: %w", m.Name(), err)
			}
		}
		tr := m.Translator()
		for depth := 1; depth <= levels; depth++ {
			parts := make([]string, depth)
			for i := range parts {
				parts[i] = fmt.Sprintf("c%d", i+1)
			}
			path := "/" + strings.Join(parts, "/")
			q, err := pathquery.Parse(path)
			if err != nil {
				return nil, err
			}
			trans, err := tr.Translate(q)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", m.Name(), path, err)
			}
			// Warm once, then time.
			if _, err := pathquery.Execute(db, trans); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", m.Name(), path, err)
			}
			const reps = 5
			start := time.Now()
			var rows *engine.Rows
			for r := 0; r < reps; r++ {
				rows, err = pathquery.Execute(db, trans)
				if err != nil {
					return nil, err
				}
			}
			lat := time.Since(start) / reps
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(depth), m.Name(), fmt.Sprint(trans.Joins),
				fmt.Sprint(len(rows.Data)), lat.Round(time.Microsecond).String(),
			})
		}
	}
	metricsNote(t, before)
	return t, nil
}

// E6b reports the ER translator's EXPLAIN plan statistics per paper
// query: union arms, joins emitted, and the joins the mapping's step-2
// attribute distilling avoided by resolving child steps to parent
// columns instead of relationship chains.
func E6b(seed int64) (*Table, error) {
	d := dtd.MustParse(paper.Example1DTD)
	queries := []string{
		"/book/booktitle",
		"/book/booktitle/text()",
		"/article/title/text()",
		"/article/author/name",
		"/article/contactauthor[@authorid]",
		"//author",
	}
	t := &Table{
		ID: "E6b", Title: "EXPLAIN plan stats (er mapping, paper DTD)",
		Header: []string{"query", "strategy", "arms", "joins-max", "joins-total", "distilled-steps", "joins-avoided"},
		Notes: []string{
			"joins-avoided counts the join predicates each distilled step would have cost under the same strategy without mapping step 2",
		},
	}
	for _, strat := range []struct {
		name string
		s    ermap.Strategy
	}{
		{"junction", ermap.StrategyJunction},
		{"fold", ermap.StrategyFoldFK},
	} {
		res, err := core.Map(d)
		if err != nil {
			return nil, err
		}
		m, err := ermap.Build(res.Model, ermap.Options{Strategy: strat.s})
		if err != nil {
			return nil, err
		}
		tr := pathquery.NewERTranslator(res, m)
		if Observe != nil || Trace != nil {
			tr.SetObserver(Observe, Trace)
		}
		for _, qs := range queries {
			q, err := pathquery.Parse(qs)
			if err != nil {
				return nil, err
			}
			trans, err := tr.Translate(q)
			if err != nil {
				t.Rows = append(t.Rows, []string{qs, strat.name, "n/a", "-", "-", "-", "-"})
				continue
			}
			st := trans.Stats
			t.Rows = append(t.Rows, []string{
				qs, strat.name, fmt.Sprint(st.Arms), fmt.Sprint(st.JoinsMax),
				fmt.Sprint(st.JoinsTotal), fmt.Sprint(st.DistilledSteps),
				fmt.Sprint(st.JoinsAvoided),
			})
		}
	}
	return t, nil
}

// E7 measures round-trip fidelity with and without ordering metadata.
func E7(seed int64) (*Table, error) {
	t := &Table{
		ID: "E7", Title: "round-trip fidelity (100 docs per DTD)",
		Header: []string{"dtd", "variant", "equal", "total"},
		Notes: []string{
			"the ordering metadata (ordinal columns) is what makes exact round-trips possible;",
			"dropping it leaves only schema ordering, which misorders repeated siblings",
		},
	}
	for _, s := range suite(seed) {
		docs, err := corpusFor(s.d, 100, seed+7)
		if err != nil {
			return nil, err
		}
		for _, withOrd := range []bool{true, false} {
			res, err := core.Map(s.d)
			if err != nil {
				return nil, err
			}
			m, err := ermap.Build(res.Model, ermap.Options{})
			if err != nil {
				return nil, err
			}
			db, err := openDB(m.Schema)
			if err != nil {
				return nil, err
			}
			loader, err := shred.NewLoader(res, m, db)
			if err != nil {
				return nil, err
			}
			observeLoader(loader)
			recon := reconstruct.New(res, m, db)
			recon.IgnoreOrdinals = !withOrd
			equal := 0
			for i, doc := range docs {
				st, err := loader.LoadDocument(doc, fmt.Sprintf("d%d", i))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s.name, err)
				}
				if recon.Verify(st.DocID, doc) == nil {
					equal++
				}
			}
			variant := "with ordering metadata"
			if !withOrd {
				variant = "without ordering metadata"
			}
			t.Rows = append(t.Rows, []string{s.name, variant, fmt.Sprint(equal), fmt.Sprint(len(docs))})
		}
	}
	return t, nil
}

// E8 measures reconstruction time against document size.
func E8(seed int64) (*Table, error) {
	t := &Table{
		ID: "E8", Title: "reconstruction time vs document size",
		Header: []string{"elements/doc", "load", "reconstruct"},
		Notes:  []string{"expected shape: both near-linear in document size"},
	}
	const levels = 6
	d := deepPathDTD(levels)
	for _, fanout := range []int{1, 2, 3, 4} {
		docs := deepPathDocs(levels, fanout, 1)
		doc := docs[0]
		res, err := core.Map(d)
		if err != nil {
			return nil, err
		}
		m, err := ermap.Build(res.Model, ermap.Options{})
		if err != nil {
			return nil, err
		}
		db, err := openDB(m.Schema)
		if err != nil {
			return nil, err
		}
		loader, err := shred.NewLoader(res, m, db)
		if err != nil {
			return nil, err
		}
		observeLoader(loader)
		start := time.Now()
		st, err := loader.LoadDocument(doc, "big")
		if err != nil {
			return nil, err
		}
		loadTime := time.Since(start)
		recon := reconstruct.New(res, m, db)
		start = time.Now()
		if _, err := recon.Document(st.DocID); err != nil {
			return nil, err
		}
		reconTime := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(doc.Root.CountElements()),
			loadTime.Round(time.Microsecond).String(),
			reconTime.Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// E9 reports joins per query class per mapping over the paper DTD.
func E9(seed int64) (*Table, error) {
	d := dtd.MustParse(paper.Example1DTD)
	queries := []string{
		"/book",
		"/book/booktitle/text()",
		"/book/author",
		"/article/author/name",
		"/article/author[@id='wlee']",
		"/article/contactauthor[@authorid]",
		"//author",
		"/editor//editor",
	}
	t := &Table{
		ID: "E9", Title: "join predicates per query class (paper DTD)",
		Header: []string{"query", "mapping", "joins", "union arms"},
		Notes: []string{
			"the paper's step-2 distilling makes /book/booktitle a zero-relationship-join lookup on er mappings;",
			"edge pays one self-join per step; shared/hybrid collapse inlined steps",
		},
	}
	maps, err := baselines.All(d)
	if err != nil {
		return nil, err
	}
	for _, qs := range queries {
		q, err := pathquery.Parse(qs)
		if err != nil {
			return nil, err
		}
		for _, m := range maps {
			trans, err := m.Translator().Translate(q)
			if err != nil {
				t.Rows = append(t.Rows, []string{qs, m.Name(), "n/a", "-"})
				continue
			}
			t.Rows = append(t.Rows, []string{
				qs, m.Name(), fmt.Sprint(trans.Joins), fmt.Sprint(len(trans.SQLs)),
			})
		}
	}
	return t, nil
}

// E10 is the step-2 (attribute distilling) ablation.
func E10(seed int64) (*Table, error) {
	t := &Table{
		ID: "E10", Title: "ablation: attribute distilling (mapping step 2)",
		Header: []string{"dtd", "distill", "entities", "relationships", "tables", "columns", "leaf-query joins"},
		Notes: []string{
			"distilling folds (#PCDATA) leaves into parent columns: fewer tables and zero-join leaf access",
		},
	}
	for _, s := range suite(seed) {
		for _, skip := range []bool{false, true} {
			res, err := core.MapWith(s.d, core.Options{SkipDistill: skip})
			if err != nil {
				return nil, err
			}
			m, err := ermap.Build(res.Model, ermap.Options{})
			if err != nil {
				return nil, err
			}
			st := m.Schema.ComputeStats()
			joins := leafQueryJoins(res, m)
			t.Rows = append(t.Rows, []string{
				s.name, fmt.Sprint(!skip),
				fmt.Sprint(len(res.Model.Entities)), fmt.Sprint(len(res.Model.Relationships)),
				fmt.Sprint(st.Tables), fmt.Sprint(st.Columns), joins,
			})
		}
	}
	return t, nil
}

// leafQueryJoins finds a parent with a PCDATA leaf child in the original
// DTD and reports the joins of /parent/leaf.
func leafQueryJoins(res *core.Result, m *ermap.Mapping) string {
	d := res.Original
	for _, parent := range d.ElementOrder {
		decl := d.Elements[parent]
		if decl.Content.Kind != dtd.ContentChildren || decl.Content.Particle == nil {
			continue
		}
		for _, ch := range decl.Content.Particle.Children {
			if ch.Kind != dtd.PKName || ch.Occ.Repeatable() {
				continue
			}
			leaf := d.Element(ch.Name)
			if leaf == nil || !leaf.Content.IsPCDataOnly() || len(d.Atts(ch.Name)) > 0 {
				continue
			}
			tr := pathquery.NewERTranslator(res, m)
			q, err := pathquery.Parse("//" + parent + "/" + ch.Name)
			if err != nil {
				continue
			}
			trans, err := tr.Translate(q)
			if err != nil {
				continue
			}
			return fmt.Sprintf("%d (/%s/%s)", trans.Joins, parent, ch.Name)
		}
	}
	return "-"
}

// E11 is the secondary-index ablation for IDREF point lookups.
func E11(seed int64) (*Table, error) {
	d := dtd.MustParse(`
<!ELEMENT net (node*)>
<!ELEMENT node EMPTY>
<!ATTLIST node id ID #REQUIRED kind CDATA #REQUIRED>
`)
	res, err := core.Map(d)
	if err != nil {
		return nil, err
	}
	m, err := ermap.Build(res.Model, ermap.Options{})
	if err != nil {
		return nil, err
	}
	db, err := openDB(m.Schema)
	if err != nil {
		return nil, err
	}
	loader, err := shred.NewLoader(res, m, db)
	if err != nil {
		return nil, err
	}
	observeLoader(loader)
	var b strings.Builder
	b.WriteString("<net>")
	const nodes = 20000
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, `<node id="n%d" kind="k%d"/>`, i, i%100)
	}
	b.WriteString("</net>")
	if _, err := loader.LoadXML(b.String(), "net"); err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E11", Title: fmt.Sprintf("ablation: secondary index (point lookups over %d rows)", nodes),
		Header: []string{"index", "query", "latency"},
		Notes:  []string{"the unique (doc, a_id) index exists by construction; a_kind gets one explicitly"},
	}
	measure := func(label, sql string) error {
		const reps = 20
		if _, err := query(db, sql); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := query(db, sql); err != nil {
				return err
			}
		}
		lat := time.Since(start) / reps
		t.Rows = append(t.Rows, []string{label, sql, lat.Round(time.Microsecond).String()})
		return nil
	}
	pointSQL := `SELECT id FROM e_node WHERE a_kind = 'k42'`
	if err := measure("no", pointSQL); err != nil {
		return nil, err
	}
	if err := db.CreateIndex("ix_kind", "e_node", []string{"a_kind"}, false); err != nil {
		return nil, err
	}
	if err := measure("yes", pointSQL); err != nil {
		return nil, err
	}
	idSQL := `SELECT id FROM e_node WHERE doc = 1 AND a_id = 'n19999'`
	if err := measure("unique(doc,a_id)", idSQL); err != nil {
		return nil, err
	}
	// Range predicates: ordered index vs full scan.
	rangeSQL := `SELECT COUNT(*) FROM e_node WHERE a_id >= 'n100' AND a_id < 'n101'`
	if err := measure("no (range)", rangeSQL); err != nil {
		return nil, err
	}
	if err := db.CreateOrderedIndex("ox_id", "e_node", "a_id"); err != nil {
		return nil, err
	}
	if err := measure("ordered (range)", rangeSQL); err != nil {
		return nil, err
	}
	return t, nil
}

// E12 compares storage footprints.
func E12(seed int64) (*Table, error) {
	t := &Table{
		ID: "E12", Title: "storage footprint per mapping (200 synthetic documents)",
		Header: []string{"dtd", "mapping", "rows", "approx bytes"},
		Notes: []string{
			"expected shape: edge stores the most rows; inline variants the fewest; universal is widest per row",
		},
	}
	for _, s := range suite(seed) {
		docs, err := corpusFor(s.d, 200, seed+12)
		if err != nil {
			return nil, err
		}
		maps, err := baselines.All(s.d)
		if err != nil {
			return nil, err
		}
		for _, m := range maps {
			db, err := openDB(m.Schema())
			if err != nil {
				return nil, err
			}
			for i, doc := range docs {
				if _, err := m.Load(db, doc, fmt.Sprintf("d%d", i)); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", s.name, m.Name(), err)
				}
			}
			t.Rows = append(t.Rows, []string{
				s.name, m.Name(), fmt.Sprint(db.TotalRows()), fmt.Sprint(db.ApproxBytes()),
			})
		}
	}
	return t, nil
}

// query runs a SELECT and materializes its result.
func query(db *engine.DB, sql string) (*engine.Rows, error) {
	cur, err := db.QueryCursorContext(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return engine.DrainCursor(cur)
}
