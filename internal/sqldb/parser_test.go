package sqldb

import (
	"errors"
	"strings"
	"testing"

	"xmlrdb/internal/rel"
)

func mustParse(t *testing.T, src string) Stmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseSelectBasic(t *testing.T) {
	st := mustParse(t, `SELECT a, b.c AS x, COUNT(*) FROM t1, t2 b WHERE a = 1 AND b.c != 'z' ORDER BY a DESC LIMIT 10 OFFSET 2`)
	sel, ok := st.(*Select)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "x" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	if c, ok := sel.Items[2].Expr.(*Call); !ok || c.Fn != "COUNT" || !c.Star {
		t.Errorf("count(*) = %#v", sel.Items[2].Expr)
	}
	if len(sel.From) != 2 || sel.From[1].Name() != "b" {
		t.Errorf("from = %+v", sel.From)
	}
	if sel.Limit != 10 || sel.Offset != 2 {
		t.Errorf("limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
}

func TestParseJoins(t *testing.T) {
	st := mustParse(t, `SELECT * FROM a JOIN b ON a.id = b.aid LEFT JOIN c ON b.id = c.bid`)
	sel := st.(*Select)
	if len(sel.Joins) != 2 {
		t.Fatalf("joins = %d", len(sel.Joins))
	}
	if sel.Joins[0].Left || !sel.Joins[1].Left {
		t.Errorf("left flags = %v %v", sel.Joins[0].Left, sel.Joins[1].Left)
	}
	if !sel.Items[0].Star {
		t.Error("star item")
	}
}

func TestParseGroupBy(t *testing.T) {
	st := mustParse(t, `SELECT doc, COUNT(*) n FROM e_author GROUP BY doc HAVING COUNT(*) > 1`)
	sel := st.(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("groupby/having = %v %v", sel.GroupBy, sel.Having)
	}
	if sel.Items[1].Alias != "n" {
		t.Errorf("bare alias = %q", sel.Items[1].Alias)
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []string{
		`SELECT * FROM t WHERE a IS NULL`,
		`SELECT * FROM t WHERE a IS NOT NULL`,
		`SELECT * FROM t WHERE a IN (1, 2, 3)`,
		`SELECT * FROM t WHERE a NOT IN ('x')`,
		`SELECT * FROM t WHERE a LIKE 'foo%'`,
		`SELECT * FROM t WHERE a NOT LIKE '%bar_'`,
		`SELECT * FROM t WHERE NOT (a = 1 OR b < 2)`,
		`SELECT * FROM t WHERE -a + 2 * b >= c % 3`,
		`SELECT LENGTH(a), LOWER(b), COALESCE(c, 'd') FROM t`,
		`SELECT COUNT(DISTINCT a) FROM t`,
		`SELECT t.* FROM t`,
		`SELECT * FROM t WHERE b = TRUE AND c = FALSE AND d = NULL`,
	}
	for _, src := range cases {
		mustParse(t, src)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'it''s')`)
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if lit := ins.Rows[1][1].(*Lit); lit.Value != "it's" {
		t.Errorf("escaped quote = %q", lit.Value)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE t (
  id INTEGER NOT NULL,
  name TEXT,
  score FLOAT,
  ok BOOLEAN,
  PRIMARY KEY (id),
  UNIQUE (name),
  FOREIGN KEY (name) REFERENCES other (nm)
)`)
	ct := st.(*CreateTable)
	def := ct.Def
	if len(def.Columns) != 4 || def.Columns[0].Type != rel.TypeInt || !def.Columns[0].NotNull {
		t.Fatalf("columns = %+v", def.Columns)
	}
	if len(def.PrimaryKey) != 1 || len(def.Uniques) != 1 || len(def.ForeignKeys) != 1 {
		t.Fatalf("constraints = %+v", def)
	}
	if def.ForeignKeys[0].RefTable != "other" {
		t.Errorf("fk = %+v", def.ForeignKeys[0])
	}
}

func TestParseInlinePrimaryKey(t *testing.T) {
	st := mustParse(t, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`)
	def := st.(*CreateTable).Def
	if len(def.PrimaryKey) != 1 || def.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", def.PrimaryKey)
	}
	if !def.Columns[1].NotNull {
		t.Error("v not null")
	}
}

func TestParseIndexAndDrop(t *testing.T) {
	ci := mustParse(t, `CREATE UNIQUE INDEX ix ON t (a, b)`).(*CreateIndex)
	if !ci.Unique || ci.Table != "t" || len(ci.Columns) != 2 {
		t.Fatalf("index = %+v", ci)
	}
	dt := mustParse(t, `DROP TABLE IF EXISTS t`).(*DropTable)
	if !dt.IfExists || dt.Table != "t" {
		t.Fatalf("drop = %+v", dt)
	}
	di := mustParse(t, `DROP INDEX ix`).(*DropIndex)
	if di.Name != "ix" {
		t.Fatalf("drop index = %+v", di)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, `UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`).(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	del := mustParse(t, `DELETE FROM t WHERE a < 5`).(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseScriptMulti(t *testing.T) {
	stmts, err := ParseScript(`
CREATE TABLE a (x INTEGER);
INSERT INTO a VALUES (1);
-- a comment
SELECT * FROM a;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t LIMIT 'x'`,
		`INSERT INTO t VALUES 1`,
		`CREATE TABLE t (a BADTYPE)`,
		`CREATE WIDGET w`,
		`SELECT * FROM t WHERE a LIKE b`,
		`SELECT * FROM t; garbage`,
		`SELECT * FROM t WHERE a = 'unterminated`,
		`UPDATE t SET`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestAggregateDetection(t *testing.T) {
	if !(&Call{Fn: "SUM"}).IsAggregate() || (&Call{Fn: "LENGTH"}).IsAggregate() {
		t.Error("IsAggregate misclassifies")
	}
}

// TestExpressionNestingLimit checks every way an expression tree grows
// — parentheses, NOT, unary minus, call arguments, IN lists and binary
// chains — stops at maxExprDepth with ErrTooDeep, and that a statement
// exactly at the limit still parses.
func TestExpressionNestingLimit(t *testing.T) {
	nested := func(open, leaf, close string, n int) string {
		return strings.Repeat(open, n) + leaf + strings.Repeat(close, n)
	}
	chain := func(op string, links int) string {
		return "1" + strings.Repeat(op+"1", links)
	}
	const n = maxExprDepth
	for _, c := range []struct {
		name     string
		at, over string // height maxExprDepth, and one more
		hostile  string // the 20 000-level probe
	}{
		{"parentheses", nested("(", "1", ")", n-1), nested("(", "1", ")", n), nested("(", "1", ")", 20000)},
		{"NOT", strings.Repeat("NOT ", n-2) + "a = 1", strings.Repeat("NOT ", n-1) + "a = 1", strings.Repeat("NOT ", 20000) + "a = 1"},
		{"unary minus", strings.Repeat("- ", n-1) + "1", strings.Repeat("- ", n) + "1", strings.Repeat("- ", 20000) + "1"},
		{"call", nested("ABS(", "1", ")", n-1), nested("ABS(", "1", ")", n), nested("ABS(", "1", ")", 20000)},
		{"IN", "1 IN (" + nested("(", "1", ")", n-2) + ")", "1 IN (" + nested("(", "1", ")", n-1) + ")", "1 IN (" + nested("(", "1", ")", 20000) + ")"},
		{"AND chain", chain(" AND ", n-1), chain(" AND ", n), chain(" AND ", 20000)},
		{"+ chain", chain(" + ", n-1), chain(" + ", n), chain(" + ", 20000)},
		{"* chain", chain(" * ", n-1), chain(" * ", n), chain(" * ", 20000)},
	} {
		if _, err := Parse("SELECT 1 FROM t WHERE " + c.at); err != nil {
			t.Errorf("%s at the limit: %v", c.name, err)
		}
		for _, src := range []string{c.over, c.hostile} {
			if _, err := Parse("SELECT 1 FROM t WHERE " + src); !errors.Is(err, ErrTooDeep) {
				t.Errorf("%s over the limit: err = %v, want ErrTooDeep", c.name, err)
			}
		}
	}
}
