package xmlrdb

import (
	"errors"
	"strings"
	"testing"

	"xmlrdb/internal/paper"
	"xmlrdb/internal/sqldb"
)

func open(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	p, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndToEnd(t *testing.T) {
	p := open(t, Config{})
	id, err := p.LoadXML(paper.BookXML, "book1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query("/book/author")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("authors = %v", rows.Data)
	}
	xml, err := p.Reconstruct(id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "<booktitle>XML RDBMS</booktitle>") {
		t.Errorf("reconstructed:\n%s", xml)
	}
	if !strings.Contains(p.ConvertedDTD(), "NESTED_GROUP NG1 book") {
		t.Error("converted DTD missing NG1")
	}
	if !strings.Contains(p.ERInventory(), "entity author { id* }") {
		t.Errorf("inventory:\n%s", p.ERInventory())
	}
	if !strings.Contains(p.DDL(), "CREATE TABLE e_book") {
		t.Error("DDL missing e_book")
	}
	if !strings.Contains(p.ERDot(), "graph ER") {
		t.Error("DOT output missing")
	}
}

func TestSQLSurface(t *testing.T) {
	p := open(t, Config{})
	if _, err := p.LoadXML(paper.ArticleXML, "a"); err != nil {
		t.Fatal(err)
	}
	rows, err := p.SQL(`SELECT COUNT(*) FROM e_author`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != int64(3) {
		t.Errorf("authors = %v", rows.Data)
	}
	// Metadata tables are queryable.
	rows, err = p.SQL(`SELECT model_text FROM meta_elements WHERE name = 'article'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 {
		t.Errorf("meta = %v", rows.Data)
	}
}

// TestSQLNestingLimit checks a 20 000-level expression is refused with
// the parser's typed error instead of being parsed, planned and run.
func TestSQLNestingLimit(t *testing.T) {
	p := open(t, Config{})
	deep := strings.Repeat("(", 20000) + "1" + strings.Repeat(")", 20000)
	for _, stmt := range []string{
		"SELECT " + deep + " FROM e_book",
		"SELECT id FROM e_book WHERE " + strings.Repeat("NOT ", 20000) + "id = 1",
	} {
		if _, err := p.SQL(stmt); !errors.Is(err, sqldb.ErrTooDeep) {
			t.Errorf("SQL of a 20 000-level statement: err = %v, want sqldb.ErrTooDeep", err)
		}
	}
}

func TestValidateSurface(t *testing.T) {
	p := open(t, Config{})
	viols, err := p.Validate(`<book><booktitle>X</booktitle><editor name="e"/></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("valid doc flagged: %v", viols)
	}
	viols, err = p.Validate(`<book><editor name="e"/></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Error("missing booktitle not flagged")
	}
}

func TestVerifyRoundTripSurface(t *testing.T) {
	for _, cfg := range []Config{{}, {Strategy: StrategyFoldFK}, {SkipDistill: true}} {
		p := open(t, cfg)
		for _, src := range []string{paper.BookXML, paper.ArticleXML, paper.EditorXML} {
			if err := p.VerifyRoundTrip(src, "rt"); err != nil {
				t.Errorf("cfg %+v: %v", cfg, err)
			}
		}
	}
}

func TestTranslatePath(t *testing.T) {
	p := open(t, Config{})
	sqls, err := p.TranslatePath("/book/booktitle/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(sqls) != 1 || !strings.Contains(sqls[0], "a_booktitle") {
		t.Errorf("sqls = %v", sqls)
	}
}

func TestStatsAndDocIDs(t *testing.T) {
	p := open(t, Config{})
	if _, err := p.LoadXML(paper.BookXML, "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadXML(paper.ArticleXML, "a1"); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Tables == 0 || st.Rows == 0 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	ids, err := p.DocumentIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("ids = %v", ids)
	}
}

func TestAnalyzeVectorizesPathQuery(t *testing.T) {
	p := open(t, Config{})
	if _, err := p.LoadXML(paper.BookXML, "b1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	if ds := p.DictStats("e_book"); len(ds) == 0 {
		t.Error("no dictionary columns on e_book after Analyze")
	}
	// A single-table path query (descendant step, so no x_docs anchor
	// join) plans as a vectorized pipeline and the EXPLAIN report says so.
	out, err := p.ExplainPath("//book/booktitle/text()")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "VecPipeline") || !strings.Contains(out, "[vec") {
		t.Errorf("explain lacks vectorized pipeline:\n%s", out)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("not a dtd", Config{}); err == nil {
		t.Error("bad DTD should fail")
	}
}

func TestLoadValidXML(t *testing.T) {
	p := open(t, Config{})
	if _, err := p.LoadValidXML(paper.BookXML, "ok"); err != nil {
		t.Fatal(err)
	}
	_, err := p.LoadValidXML(`<book><editor name="e"/></book>`, "bad")
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Errorf("err = %v", err)
	}
	// Nothing from the invalid document was stored.
	rows, err := p.SQL(`SELECT COUNT(*) FROM e_book`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != int64(1) {
		t.Errorf("books = %v", rows.Data[0][0])
	}
}
