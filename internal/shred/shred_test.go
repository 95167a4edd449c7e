package shred

import (
	"context"
	"strings"
	"testing"

	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/meta"
	"xmlrdb/internal/paper"
)

// setup maps a DTD, creates the schema and returns a ready loader.
func setup(t *testing.T, dtdText string, opts ermap.Options) (*Loader, *engine.DB) {
	t.Helper()
	res, err := core.Map(dtd.MustParse(dtdText))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ermap.Build(res.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open()
	if err := db.CreateSchema(m.Schema); err != nil {
		t.Fatal(err)
	}
	if err := meta.Store(db, res, m); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(res, m, db)
	if err != nil {
		t.Fatal(err)
	}
	return l, db
}

func count(t *testing.T, db *engine.DB, sql string) int64 {
	t.Helper()
	return mustQuery(db, sql).Data[0][0].(int64)
}

// mustQuery runs a SELECT through the engine's read path and drains it,
// panicking on error.
func mustQuery(db *engine.DB, sql string) *engine.Rows {
	cur, err := db.QueryCursorContext(context.Background(), sql)
	if err == nil {
		var rows *engine.Rows
		if rows, err = engine.DrainCursor(cur); err == nil {
			return rows
		}
	}
	panic(err)
}

func TestLoadPaperBook(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	st, err := l.LoadXML(paper.BookXML, "book1")
	if err != nil {
		t.Fatal(err)
	}
	if st.DocID != 1 {
		t.Errorf("doc id = %d", st.DocID)
	}
	// book(1) + 2 authors + 2 names = 5 element rows (booktitle,
	// firstname, lastname distilled).
	if st.Elements != 5 {
		t.Errorf("elements = %d, want 5", st.Elements)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got != 1 {
		t.Errorf("books = %d", got)
	}
	rows := mustQuery(db, `SELECT a_booktitle FROM e_book`)
	if rows.Data[0][0] != "XML RDBMS" {
		t.Errorf("booktitle = %v", rows.Data[0][0])
	}
	// Authors via NG1, in document order.
	rows = mustQuery(db, `
SELECT n.a_firstname FROM r_NG1 g
JOIN e_author a ON g.child = a.id
JOIN r_Nname nn ON nn.parent = a.id
JOIN e_name n ON nn.child = n.id
WHERE g.target = 'author'
ORDER BY g.ord`)
	if len(rows.Data) != 2 || rows.Data[0][0] != "John" || rows.Data[1][0] != "Dave" {
		t.Errorf("author order = %v", rows.Data)
	}
	// Data ordering: author ordinals are 1 and 2 (booktitle was child 0).
	ords := mustQuery(db, `SELECT ord FROM r_NG1 ORDER BY ord`)
	if len(ords.Data) != 2 || ords.Data[0][0] != int64(1) || ords.Data[1][0] != int64(2) {
		t.Errorf("ordinals = %v", ords.Data)
	}
	// Document registry.
	reg := mustQuery(db, `SELECT name, root_type, root FROM x_docs`)
	if reg.Data[0][0] != "book1" || reg.Data[0][1] != "book" {
		t.Errorf("registry = %v", reg.Data[0])
	}
}

func TestLoadArticleWithReference(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	if _, err := l.LoadXML(paper.ArticleXML, "a1"); err != nil {
		t.Fatal(err)
	}
	// The contactauthor IDREF resolves to the wlee author row.
	rows := mustQuery(db, `
SELECT r.refvalue, r.target_type, n.a_lastname
FROM r_authorid r
JOIN e_author a ON r.target = a.id
JOIN r_Nname nn ON nn.parent = a.id
JOIN e_name n ON nn.child = n.id`)
	if len(rows.Data) != 1 {
		t.Fatalf("ref rows = %v", rows.Data)
	}
	if rows.Data[0][0] != "wlee" || rows.Data[0][1] != "author" || rows.Data[0][2] != "Lee" {
		t.Errorf("resolved ref = %v", rows.Data[0])
	}
	// Group instances: 3 (author, affiliation?) iterations.
	grps := mustQuery(db, `SELECT COUNT(DISTINCT grp) FROM r_NG2`)
	if grps.Data[0][0] != int64(3) {
		t.Errorf("group instances = %v", grps.Data[0][0])
	}
	// Affiliation raw content (ANY).
	raw := mustQuery(db, `SELECT raw FROM e_affiliation ORDER BY id`)
	if len(raw.Data) != 2 || raw.Data[0][0] != "GTE Laboratories" {
		t.Errorf("raw = %v", raw.Data)
	}
}

func TestLoadRecursiveEditor(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	if _, err := l.LoadXML(paper.EditorXML, "e1"); err != nil {
		t.Fatal(err)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_editor`); got != 2 {
		t.Errorf("editors = %d", got)
	}
	// The outer editor nests one book and one monograph via NG3.
	rows := mustQuery(db, `SELECT target FROM r_NG3 WHERE parent = 1 ORDER BY ord`)
	if len(rows.Data) != 2 || rows.Data[0][0] != "book" || rows.Data[1][0] != "monograph" {
		t.Errorf("NG3 = %v", rows.Data)
	}
}

func TestUnresolvedReferenceKept(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	xml := `<article><title>T</title>
<author id="a"><name><lastname>L</lastname></name></author>
<contactauthor authorid="ghost"/></article>`
	if _, err := l.LoadXML(xml, "a"); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `SELECT refvalue, target FROM r_authorid`)
	if rows.Data[0][0] != "ghost" || rows.Data[0][1] != nil {
		t.Errorf("dangling ref = %v", rows.Data[0])
	}
}

func TestLoadInvalidDocuments(t *testing.T) {
	l, _ := setup(t, paper.Example1DTD, ermap.Options{})
	cases := []struct{ name, xml string }{
		{"undeclared element", `<zap/>`},
		{"content mismatch", `<book><author id="q"><name><lastname>x</lastname></name></author></book>`},
		{"undeclared attribute", `<book color="red"><booktitle>X</booktitle><editor name="e"/></book>`},
		{"text in element content", `<monograph>hello<title>T</title></monograph>`},
		{"duplicate id", `<article><title>T</title><author id="a"><name><lastname>x</lastname></name></author><author id="a"><name><lastname>y</lastname></name></author></article>`},
		{"EMPTY with content", `<article><title>T</title><author id="a"><name><lastname>x</lastname></name></author><contactauthor>zz</contactauthor></article>`},
		{"attribute on distilled child", `<book><booktitle>X</booktitle><author id="q"><name><lastname x="1">Brown</lastname></name></author></book>`},
		{"element inside distilled child", `<book><booktitle>X</booktitle><author id="q"><name><lastname>Br<firstname>q</firstname>own</lastname></name></author></book>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := l.LoadXML(c.xml, c.name); err == nil {
				t.Errorf("LoadXML(%s) succeeded, want error", c.name)
			}
		})
	}
}

func TestMultipleDocumentsSeparateIDSpaces(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	xml := `<article><title>T</title><author id="same"><name><lastname>L</lastname></name></author><contactauthor authorid="same"/></article>`
	if _, err := l.LoadXML(xml, "d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadXML(xml, "d2"); err != nil {
		t.Fatalf("same ID in second document must be fine: %v", err)
	}
	// Each reference resolves within its own document.
	rows := mustQuery(db, `
SELECT r.doc, a.doc FROM r_authorid r JOIN e_author a ON r.target = a.id ORDER BY r.doc`)
	if len(rows.Data) != 2 {
		t.Fatalf("refs = %v", rows.Data)
	}
	for _, row := range rows.Data {
		if row[0] != row[1] {
			t.Errorf("cross-document resolution: %v", row)
		}
	}
}

func TestFoldFKLoading(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{Strategy: ermap.StrategyFoldFK})
	if _, err := l.LoadXML(paper.BookXML, "b"); err != nil {
		t.Fatal(err)
	}
	// name rows carry their author parent directly.
	rows := mustQuery(db, `
SELECT n.a_firstname FROM e_name n JOIN e_author a ON n.parent = a.id ORDER BY n.id`)
	if len(rows.Data) != 2 || rows.Data[0][0] != "John" {
		t.Errorf("folded parents = %v", rows.Data)
	}
	if db.TableDef("r_Nname") != nil {
		t.Error("r_Nname should not exist under fold")
	}
}

func TestMixedContentLoad(t *testing.T) {
	l, db := setup(t, `
<!ELEMENT para (#PCDATA | em | code)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT code (#PCDATA)>
`, ermap.Options{})
	st, err := l.LoadXML(`<para>alpha <em>beta</em> gamma <code>delta</code>!</para>`, "m")
	if err != nil {
		t.Fatal(err)
	}
	if st.TextChunks != 3 {
		t.Errorf("text chunks = %d, want 3", st.TextChunks)
	}
	// Interleaving preserved by shared ordinals.
	texts := mustQuery(db, `SELECT ord, txt FROM x_text ORDER BY ord`)
	if texts.Data[0][1] != "alpha " || texts.Data[2][1] != "!" {
		t.Errorf("chunks = %v", texts.Data)
	}
	kids := mustQuery(db, `SELECT ord, target FROM r_NGpara ORDER BY ord`)
	if len(kids.Data) != 2 || kids.Data[0][1] != "em" || kids.Data[0][0] != int64(1) {
		t.Errorf("mixed children = %v", kids.Data)
	}
	// txt convenience column holds full text content.
	full := mustQuery(db, `SELECT txt FROM e_para`)
	if full.Data[0][0] != "alpha beta gamma delta!" {
		t.Errorf("para txt = %q", full.Data[0][0])
	}
}

func TestNestedGroupsInsideGroups(t *testing.T) {
	l, db := setup(t, `
<!ELEMENT x ((a, b) | (c, d))>
<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>
`, ermap.Options{})
	if _, err := l.LoadXML(`<x><c/><d/></x>`, "g"); err != nil {
		t.Fatal(err)
	}
	// x links to one virtual entity (the chosen (c, d) branch), which
	// links to c and d.
	outer := mustQuery(db, `SELECT target FROM r_NG3`)
	if len(outer.Data) != 1 || outer.Data[0][0] != "G2" {
		t.Errorf("outer arcs = %v", outer.Data)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_G2`); got != 1 {
		t.Errorf("virtual entities = %d", got)
	}
	inner := mustQuery(db, `SELECT target FROM r_NG2 ORDER BY ord`)
	if len(inner.Data) != 2 || inner.Data[0][0] != "c" || inner.Data[1][0] != "d" {
		t.Errorf("inner arcs = %v", inner.Data)
	}
}

func TestRepeatedPCDataLeafStaysEntity(t *testing.T) {
	l, db := setup(t, `
<!ELEMENT list (item*)>
<!ELEMENT item (#PCDATA)>
`, ermap.Options{})
	if _, err := l.LoadXML(`<list><item>one</item><item>two</item></list>`, "l"); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `
SELECT i.txt FROM e_item i JOIN r_Nitem g ON g.child = i.id ORDER BY g.ord`)
	if len(rows.Data) != 2 || rows.Data[0][0] != "one" || rows.Data[1][0] != "two" {
		t.Errorf("items = %v", rows.Data)
	}
}

func TestIDREFSLoad(t *testing.T) {
	l, db := setup(t, `
<!ELEMENT net (node*)>
<!ELEMENT node EMPTY>
<!ATTLIST node id ID #REQUIRED peers IDREFS #IMPLIED>
`, ermap.Options{})
	if _, err := l.LoadXML(`<net><node id="n1"/><node id="n2" peers="n1 n3"/><node id="n3" peers="n1"/></net>`, "n"); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `SELECT refvalue, ord FROM r_peers ORDER BY source, ord`)
	if len(rows.Data) != 3 {
		t.Fatalf("refs = %v", rows.Data)
	}
	if rows.Data[0][0] != "n1" || rows.Data[0][1] != int64(0) || rows.Data[1][0] != "n3" || rows.Data[1][1] != int64(1) {
		t.Errorf("ordered refs = %v", rows.Data)
	}
}

func TestAttributeDefaultsStored(t *testing.T) {
	l, db := setup(t, `
<!ELEMENT doc EMPTY>
<!ATTLIST doc lang CDATA "en" status (draft | final) "draft">
`, ermap.Options{})
	if _, err := l.LoadXML(`<doc status="final"/>`, "d"); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `SELECT a_lang, a_status FROM e_doc`)
	if rows.Data[0][0] != "en" || rows.Data[0][1] != "final" {
		t.Errorf("defaults = %v", rows.Data[0])
	}
}

func TestMetaTablesPopulated(t *testing.T) {
	_, db := setup(t, paper.Example1DTD, ermap.Options{})
	if got := count(t, db, `SELECT COUNT(*) FROM meta_elements`); got != 12 {
		t.Errorf("meta_elements = %d", got)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM meta_distilled`); got != 5 {
		t.Errorf("meta_distilled = %d", got)
	}
	rows := mustQuery(db, `SELECT model_text FROM meta_elements WHERE name = 'book'`)
	if rows.Data[0][0] != "(booktitle, (author* | editor))" {
		t.Errorf("model text = %v", rows.Data[0][0])
	}
	rows = mustQuery(db, `SELECT table_name FROM meta_mapping WHERE kind = 'entity' AND name = 'author'`)
	if rows.Data[0][0] != "e_author" {
		t.Errorf("mapping = %v", rows.Data)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM meta_existence`); got != 1 {
		t.Errorf("existence = %d", got)
	}
}

func TestConcurrentLoading(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	docs := 16
	errc := make(chan error, docs)
	for i := 0; i < docs; i++ {
		go func() {
			_, err := l.LoadXML(paper.BookXML, "c")
			errc <- err
		}()
	}
	for i := 0; i < docs; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got != int64(docs) {
		t.Errorf("books = %d", got)
	}
	if got := count(t, db, `SELECT COUNT(DISTINCT doc) FROM e_book`); got != int64(docs) {
		t.Errorf("distinct docs = %d", got)
	}
}

func TestStatsCounts(t *testing.T) {
	l, _ := setup(t, paper.Example1DTD, ermap.Options{})
	st, err := l.LoadXML(paper.ArticleXML, "s")
	if err != nil {
		t.Fatal(err)
	}
	if st.RefRows != 1 {
		t.Errorf("ref rows = %d", st.RefRows)
	}
	if st.RelRows == 0 || st.Elements == 0 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(paper.ArticleXML, "contactauthor") {
		t.Fatal("fixture sanity")
	}
}
