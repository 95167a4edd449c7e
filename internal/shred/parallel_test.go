package shred

import (
	"fmt"
	"sync"
	"testing"

	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/reconstruct"
	"xmlrdb/internal/wgen"
	"xmlrdb/internal/xmltree"
)

// testCorpus generates a small deterministic corpus over a DTD with
// repetition, references and attributes.
func testCorpus(t *testing.T, n int) (*dtd.DTD, []*xmltree.Document) {
	t.Helper()
	d := wgen.GenerateDTD(wgen.DTDConfig{
		Elements: 20, Seed: 11, AttrsPerElement: 2, Levels: 4,
		IDProb: 0.3, IDREFProb: 0.3, OptionalProb: 0.3, RepeatProb: 0.4,
	})
	docs, err := wgen.Corpus(d, n, 11, wgen.DocConfig{MaxRepeat: 3})
	if err != nil {
		t.Fatal(err)
	}
	return d, docs
}

// TestConcurrentLoadDocument proves the Loader itself is safe for
// concurrent LoadDocument calls (atomic id allocation, no shared doc
// state); meaningful under -race.
func TestConcurrentLoadDocument(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	const n = 8
	ids := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc, err := xmltree.ParseWith(paper.BookXML, xmltree.Options{ExternalDTD: l.res.Original})
			if err != nil {
				t.Error(err)
				return
			}
			st, err := l.LoadDocument(doc, fmt.Sprintf("copy-%d", i))
			if err != nil {
				t.Errorf("load %d: %v", i, err)
				return
			}
			ids[i] = st.DocID
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("doc ids not unique: %v", ids)
		}
		seen[id] = true
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got != n {
		t.Errorf("books = %d, want %d", got, n)
	}
	if err := db.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}

// loadBoth loads the same corpus serially (LoadDocument) and through
// LoadCorpus with the given worker count, returning both databases.
func loadBoth(t *testing.T, d *dtd.DTD, docs []*xmltree.Document, opts ermap.Options, workers int) (serial, parallel *engine.DB) {
	t.Helper()
	res, err := core.Map(d)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Loader, *engine.DB) {
		m, err := ermap.Build(res.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		db := engine.Open()
		if err := db.CreateSchema(m.Schema); err != nil {
			t.Fatal(err)
		}
		l, err := NewLoader(res, m, db)
		if err != nil {
			t.Fatal(err)
		}
		return l, db
	}
	ls, serial := build()
	for i, doc := range docs {
		if _, err := ls.LoadDocument(doc, fmt.Sprintf("doc-%d", i)); err != nil {
			t.Fatalf("serial doc %d: %v", i, err)
		}
	}
	lp, parallel := build()
	sts, err := lp.LoadCorpus(docs, workers)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(sts) != len(docs) {
		t.Fatalf("stats for %d docs, want %d", len(sts), len(docs))
	}
	return serial, parallel
}

// TestLoadCorpusMatchesSerial checks the parallel staged pipeline
// produces the same per-table row counts as document-at-a-time loading,
// keeps every FK valid, and that each loaded document reconstructs.
func TestLoadCorpusMatchesSerial(t *testing.T) {
	d, docs := testCorpus(t, 12)
	serial, parallel := loadBoth(t, d, docs, ermap.Options{}, 4)
	for _, name := range serial.TableNames() {
		if got, want := parallel.RowCount(name), serial.RowCount(name); got != want {
			t.Errorf("RowCount(%s) = %d parallel, %d serial", name, got, want)
		}
	}
	if err := parallel.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}

// TestLoadCorpusRoundTrip reconstructs every document loaded through
// the parallel pipeline and verifies equivalence with the original.
func TestLoadCorpusRoundTrip(t *testing.T) {
	d, docs := testCorpus(t, 6)
	res, err := core.Map(d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ermap.Build(res.Model, ermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open()
	if err := db.CreateSchema(m.Schema); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(res, m, db)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := l.LoadCorpus(docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := reconstruct.New(res, m, db)
	for i, st := range sts {
		if err := r.Verify(st.DocID, docs[i]); err != nil {
			t.Errorf("doc %d: %v", i, err)
		}
	}
}

// TestLoadCorpusRecursiveFold exercises the cyclic-FK fallback: under
// the fold strategy a mutually recursive DTD folds parent FKs into the
// entity tables, so no FK-topological flush order exists and the staged
// batches must flush run-by-run in document order.
func TestLoadCorpusRecursiveFold(t *testing.T) {
	const dtdText = `<!ELEMENT a (b*)> <!ELEMENT b (a*)>`
	d := dtd.MustParse(dtdText)
	docs := []*xmltree.Document{
		xmltree.MustParse(`<a><b><a></a><a><b></b></a></b><b></b></a>`),
		xmltree.MustParse(`<a><b><a><b><a></a></b></a></b></a>`),
	}
	serial, parallel := loadBoth(t, d, docs, ermap.Options{Strategy: ermap.StrategyFoldFK}, 2)
	for _, name := range serial.TableNames() {
		if got, want := parallel.RowCount(name), serial.RowCount(name); got != want {
			t.Errorf("RowCount(%s) = %d parallel, %d serial", name, got, want)
		}
	}
	if err := parallel.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}

// TestLoadCorpusNamed checks explicit names land in the registry and
// missing names fall back to doc-i.
func TestLoadCorpusNamed(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	doc := func() *xmltree.Document {
		d, err := xmltree.ParseWith(paper.BookXML, xmltree.Options{ExternalDTD: l.res.Original})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sts, err := l.LoadCorpusNamed([]*xmltree.Document{doc(), doc()}, []string{"first.xml"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := map[int64]string{}
	rows := mustQuery(db, `SELECT doc, name FROM x_docs`)
	for _, r := range rows.Data {
		names[r[0].(int64)] = r[1].(string)
	}
	if got := names[sts[0].DocID]; got != "first.xml" {
		t.Errorf("doc 0 name = %q, want first.xml", got)
	}
	if got := names[sts[1].DocID]; got != "doc-1" {
		t.Errorf("doc 1 name = %q, want doc-1", got)
	}
}

// TestLoadCorpusError checks a failing document aborts the corpus load
// with an error naming it.
func TestLoadCorpusError(t *testing.T) {
	l, _ := setup(t, paper.Example1DTD, ermap.Options{})
	good, err := xmltree.ParseWith(paper.BookXML, xmltree.Options{ExternalDTD: l.res.Original})
	if err != nil {
		t.Fatal(err)
	}
	bad := xmltree.MustParse(`<unmapped></unmapped>`)
	if _, err := l.LoadCorpus([]*xmltree.Document{good, bad}, 2); err == nil {
		t.Fatal("corpus with unmapped root loaded")
	}
}
