package pathquery

import (
	"context"
	"strings"
	"testing"

	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/shred"
)

func TestParsePath(t *testing.T) {
	tests := []struct {
		in    string
		steps int
		str   string
	}{
		{"/book", 1, "/book"},
		{"/book/booktitle", 2, "/book/booktitle"},
		{"//author", 1, "//author"},
		{"/article//lastname", 2, "/article//lastname"},
		{"/a/*/c", 3, "/a/*/c"},
		{"/article/author[@id='x']", 2, "/article/author[@id='x']"},
		{"/a/b[@x]", 2, "/a/b[@x]"},
		{"/a/b[text()='v']", 2, "/a/b[text()='v']"},
		{"/a/b/text()", 2, "/a/b/text()"},
		{"/a/b/@x", 2, "/a/b/@x"},
	}
	for _, tt := range tests {
		q, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if q.Depth() != tt.steps {
			t.Errorf("%q: depth = %d, want %d", tt.in, q.Depth(), tt.steps)
		}
		if q.String() != tt.str {
			t.Errorf("%q: String = %q", tt.in, q.String())
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, in := range []string{
		"", "book", "/", "/a/b/text()/c", "/a/@x/b", "/text()",
		"/a[b]", "/a[@x='unterminated]", "/a[@x=v]", "//text()",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

// loadedStore builds the paper store with all three fixture documents.
func loadedStore(t *testing.T, strategy ermap.Strategy) (*ERTranslator, *engine.DB) {
	t.Helper()
	res, err := core.Map(dtd.MustParse(paper.Example1DTD))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ermap.Build(res.Model, ermap.Options{Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open()
	if err := db.CreateSchema(m.Schema); err != nil {
		t.Fatal(err)
	}
	l, err := shred.NewLoader(res, m, db)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{paper.BookXML, paper.ArticleXML, paper.EditorXML} {
		if _, err := l.LoadXML(src, string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	return NewERTranslator(res, m), db
}

// run drains RunCursor: the path query's whole result.
func run(db *engine.DB, t Translator, path string) (*engine.Rows, error) {
	cur, err := RunCursor(context.Background(), db, t, path)
	if err != nil {
		return nil, err
	}
	return engine.DrainCursor(cur)
}

func runPath(t *testing.T, tr *ERTranslator, db *engine.DB, path string) *engine.Rows {
	t.Helper()
	rows, err := run(db, tr, path)
	if err != nil {
		t.Fatalf("run(%q): %v", path, err)
	}
	return rows
}

func TestDistilledLeafQuery(t *testing.T) {
	tr, db := loadedStore(t, 0)
	rows := runPath(t, tr, db, "/book/booktitle/text()")
	if len(rows.Data) != 1 || rows.Data[0][2] != "XML RDBMS" {
		t.Errorf("booktitle = %v", rows.Data)
	}
	// A distilled leaf requires no relationship join: only the root
	// anchor join.
	q := MustParse("/book/booktitle/text()")
	trans, err := tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if trans.Joins != 1 {
		t.Errorf("joins = %d, want 1 (root anchor only)", trans.Joins)
	}
}

func TestChildStepThroughGroup(t *testing.T) {
	tr, db := loadedStore(t, 0)
	// Root-anchored /book/author: only the book document's authors.
	rows := runPath(t, tr, db, "/book/author")
	if len(rows.Data) != 2 {
		t.Errorf("/book/author = %v", rows.Data)
	}
	// /article/author: the three article authors.
	rows = runPath(t, tr, db, "/article/author")
	if len(rows.Data) != 3 {
		t.Errorf("/article/author = %v", rows.Data)
	}
}

func TestDescendantQuery(t *testing.T) {
	tr, db := loadedStore(t, 0)
	// All authors anywhere: 2 (book) + 3 (article) + 2 (editor doc).
	rows := runPath(t, tr, db, "//author")
	if len(rows.Data) != 7 {
		t.Errorf("//author = %d rows", len(rows.Data))
	}
	// Editors nested at any depth under the editor document.
	rows = runPath(t, tr, db, "/editor//editor")
	if len(rows.Data) != 1 {
		t.Errorf("/editor//editor = %d rows, want 1 (the leaf editor)", len(rows.Data))
	}
}

func TestPredicateQueries(t *testing.T) {
	tr, db := loadedStore(t, 0)
	rows := runPath(t, tr, db, "/article/author[@id='wlee']")
	if len(rows.Data) != 1 {
		t.Errorf("author[@id='wlee'] = %v", rows.Data)
	}
	rows = runPath(t, tr, db, "/article/contactauthor[@authorid='wlee']")
	if len(rows.Data) != 1 {
		t.Errorf("reference predicate = %v", rows.Data)
	}
	rows = runPath(t, tr, db, "/article/contactauthor[@authorid]")
	if len(rows.Data) != 1 {
		t.Errorf("reference existence = %v", rows.Data)
	}
	rows = runPath(t, tr, db, "/editor[@name='Knuth']")
	if len(rows.Data) != 1 {
		t.Errorf("editor[@name] = %v", rows.Data)
	}
}

func TestAttrProjection(t *testing.T) {
	tr, db := loadedStore(t, 0)
	rows := runPath(t, tr, db, "/article/author/@id")
	if len(rows.Data) != 3 {
		t.Fatalf("@id rows = %v", rows.Data)
	}
	vals := map[string]bool{}
	for _, r := range rows.Data {
		vals[r[2].(string)] = true
	}
	if !vals["wlee"] || !vals["gmitchell"] || !vals["xzhang"] {
		t.Errorf("ids = %v", vals)
	}
}

func TestWildcardStep(t *testing.T) {
	tr, db := loadedStore(t, 0)
	// /article/*: authors, affiliations, contactauthor (title distilled
	// away, so not an element).
	rows := runPath(t, tr, db, "/article/*")
	if len(rows.Data) != 6 {
		t.Errorf("/article/* = %d rows, want 6", len(rows.Data))
	}
}

func TestTextOnPCDataEntity(t *testing.T) {
	res, err := core.Map(dtd.MustParse(`
<!ELEMENT list (item*)>
<!ELEMENT item (#PCDATA)>
`))
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
	l, err := shred.NewLoader(res, m, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadXML(`<list><item>one</item><item>two</item></list>`, "l"); err != nil {
		t.Fatal(err)
	}
	tr := NewERTranslator(res, m)
	rows, err := run(db, tr, "/list/item[text()='two']")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 {
		t.Errorf("text predicate = %v", rows.Data)
	}
	rows, err = run(db, tr, "/list/item/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("text projection = %v", rows.Data)
	}
}

func TestFoldStrategyQueries(t *testing.T) {
	tr, db := loadedStore(t, ermap.StrategyFoldFK)
	rows := runPath(t, tr, db, "/article/author/name")
	if len(rows.Data) != 3 {
		t.Errorf("folded name step = %v", rows.Data)
	}
	// Folded joins are cheaper: name is reached via child.parent = a.id.
	q := MustParse("/article/author/name")
	trans, err := tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	junctionTr, junctionDB := loadedStore(t, 0)
	jt, err := junctionTr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	_ = junctionDB
	if trans.Joins >= jt.Joins {
		t.Errorf("fold joins %d should be < junction joins %d", trans.Joins, jt.Joins)
	}
}

func TestTranslationErrors(t *testing.T) {
	tr, _ := loadedStore(t, 0)
	cases := []string{
		"/nosuch",
		"/book/booktitle/impossible",
		"/book/author[@nope='x']",
		"/book/author/text()",
		"/article/author/@nope",
	}
	for _, path := range cases {
		q, err := Parse(path)
		if err != nil {
			t.Fatalf("parse %q: %v", path, err)
		}
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("Translate(%q) succeeded, want error", path)
		}
	}
}

func TestJoinCountsGrowWithDepth(t *testing.T) {
	tr, _ := loadedStore(t, 0)
	j := func(path string) int {
		trans, err := tr.Translate(MustParse(path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return trans.Joins
	}
	d1 := j("/article")
	d2 := j("/article/author")
	d3 := j("/article/author/name")
	if !(d1 < d2 && d2 < d3) {
		t.Errorf("join growth: %d %d %d", d1, d2, d3)
	}
}

func TestTranslatorName(t *testing.T) {
	tr, _ := loadedStore(t, 0)
	if !strings.HasPrefix(tr.Name(), "er-") {
		t.Errorf("name = %q", tr.Name())
	}
}

func TestQuoteEscapingInPredicates(t *testing.T) {
	tr, db := loadedStore(t, 0)
	rows, err := run(db, tr, "/editor[@name='O''Brien']")
	if err != nil {
		t.Fatalf("escaped quote: %v", err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("rows = %v", rows.Data)
	}
}
