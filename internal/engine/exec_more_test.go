package engine

import (
	"reflect"
	"testing"

	"xmlrdb/internal/rel"
)

func TestScanTableAndLookup(t *testing.T) {
	db := testDB(t)
	var titles []string
	err := db.ScanTable("books", func(row []any) bool {
		titles = append(titles, row[1].(string))
		return len(titles) < 3 // early stop
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 3 {
		t.Errorf("scan visited %d rows", len(titles))
	}
	if err := db.ScanTable("nope", func([]any) bool { return true }); err == nil {
		t.Error("missing table should fail")
	}

	// Lookup via the PK index.
	rows, err := db.Lookup("books", []string{"id"}, []any{int64(10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != "XML RDBMS" {
		t.Errorf("lookup = %v", rows)
	}
	// Lookup without an index (full scan path).
	rows, err = db.Lookup("books", []string{"year"}, []any{int64(1999)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("year lookup = %v", rows)
	}
	if _, err := db.Lookup("books", []string{"nope"}, []any{1}); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := db.Lookup("nope", []string{"id"}, []any{1}); err == nil {
		t.Error("missing table should fail")
	}
	// Returned rows are copies: mutating them must not corrupt storage.
	rows, _ = db.Lookup("books", []string{"id"}, []any{int64(10)})
	rows[0][1] = "MUTATED"
	fresh := mustQuery(db, `SELECT title FROM books WHERE id = 10`)
	if fresh.Data[0][0] != "XML RDBMS" {
		t.Error("Lookup leaked internal row storage")
	}
}

func TestCreateSchemaAndDuplicate(t *testing.T) {
	db := Open()
	s := rel.NewSchema("s")
	if err := s.AddTable(&rel.Table{Name: "a", Columns: []rel.Column{{Name: "x", Type: rel.TypeInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSchema(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSchema(s); err == nil {
		t.Error("duplicate schema creation should fail")
	}
}

func TestCreateIndexOnPopulatedTableWithDuplicates(t *testing.T) {
	db := testDB(t)
	// Non-unique index over existing rows works.
	if err := db.CreateIndex("ix_year", "books", []string{"year"}, false); err != nil {
		t.Fatal(err)
	}
	// Unique index over duplicate years must fail and roll back.
	if err := db.CreateIndex("ux_year", "books", []string{"year"}, true); err == nil {
		t.Error("unique index over duplicates should fail")
	}
	if err := db.CreateIndex("ix_year", "books", []string{"year"}, false); err == nil {
		t.Error("duplicate index name should fail")
	}
	if err := db.CreateIndex("ix_bad", "books", []string{"nope"}, false); err == nil {
		t.Error("bad column should fail")
	}
	if err := db.CreateIndex("ix", "nope", []string{"x"}, false); err == nil {
		t.Error("bad table should fail")
	}
}

func TestExpressionEdgeCases(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want any
	}{
		{`SELECT 7 % 3 FROM authors LIMIT 1`, int64(1)},
		{`SELECT 7.5 / 2.5 FROM authors LIMIT 1`, 3.0},
		{`SELECT 2 + 0.5 FROM authors LIMIT 1`, 2.5},
		{`SELECT -age FROM authors WHERE name = 'Lee'`, int64(-50)},
		{`SELECT NOT (age > 100) FROM authors WHERE name = 'Lee'`, true},
		{`SELECT age >= 50 AND age <= 50 FROM authors WHERE name = 'Lee'`, true},
		{`SELECT age != 50 OR FALSE FROM authors WHERE name = 'Lee'`, false},
		{`SELECT ABS(0 - 4) FROM authors LIMIT 1`, int64(4)},
		{`SELECT ABS(0.5 - 1.0) FROM authors LIMIT 1`, 0.5},
		{`SELECT LOWER('ABC') FROM authors LIMIT 1`, "abc"},
		{`SELECT LENGTH(NULL) FROM authors LIMIT 1`, nil},
		{`SELECT COALESCE(NULL, NULL) FROM authors LIMIT 1`, nil},
		{`SELECT name NOT IN ('Smith') FROM authors WHERE name = 'Lee'`, true},
		{`SELECT name NOT LIKE 'S%' FROM authors WHERE name = 'Lee'`, true},
		{`SELECT age IS NOT NULL FROM authors WHERE name = 'Lee'`, true},
		{`SELECT 1 + NULL FROM authors LIMIT 1`, nil},
	}
	for _, c := range cases {
		rows, err := querySQL(db, c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if !reflect.DeepEqual(rows.Data[0][0], c.want) {
			t.Errorf("%s = %#v, want %#v", c.sql, rows.Data[0][0], c.want)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		`SELECT 1 / 0 FROM authors`,
		`SELECT 1 % 0 FROM authors`,
		`SELECT name * 2 FROM authors`,
		`SELECT UNKNOWNFN(1) FROM authors`,
		`SELECT LENGTH(1, 2) FROM authors`,
		`SELECT SUM(name) FROM authors`,
		`SELECT MIN(*) FROM authors`,
		`SELECT NUM(name) FROM authors WHERE name = 'Lee'`,
	}
	for _, sql := range cases {
		if _, err := querySQL(db, sql); err == nil {
			t.Errorf("%s should fail", sql)
		}
	}
}

func TestAggregateExpressions(t *testing.T) {
	db := testDB(t)
	// Arithmetic over aggregates and NOT in group context.
	rows := mustQuery(db, `
SELECT author, MAX(year) - MIN(year) spread, NOT (COUNT(*) > 1)
FROM books GROUP BY author ORDER BY author`)
	if len(rows.Data) != 3 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[0][1] != int64(2) || rows.Data[0][2] != false {
		t.Errorf("author 1 = %v", rows.Data[0])
	}
	// AVG over floats.
	avg := mustQuery(db, `SELECT AVG(year) FROM books`)
	if avg.Data[0][0] != float64(1999+2005+2001+1999)/4 {
		t.Errorf("avg = %v", avg.Data[0][0])
	}
	// HAVING with arithmetic.
	rows = mustQuery(db, `SELECT author FROM books GROUP BY author HAVING MAX(year) - MIN(year) > 1`)
	if len(rows.Data) != 1 {
		t.Errorf("having = %v", rows.Data)
	}
}

func TestHasAggregateOnAllForms(t *testing.T) {
	db := testDB(t)
	// Aggregates inside IN / LIKE / IS NULL positions of HAVING.
	rows := mustQuery(db, `
SELECT author FROM books GROUP BY author HAVING COUNT(*) IN (2)`)
	if len(rows.Data) != 1 {
		t.Errorf("agg-in-IN = %v", rows.Data)
	}
	rows = mustQuery(db, `
SELECT author FROM books GROUP BY author HAVING MAX(title) LIKE 'X%'`)
	if len(rows.Data) != 1 {
		t.Errorf("agg-in-LIKE = %v", rows.Data)
	}
	rows = mustQuery(db, `
SELECT author FROM books GROUP BY author HAVING MIN(year) IS NOT NULL ORDER BY author`)
	if len(rows.Data) != 3 {
		t.Errorf("agg-in-ISNULL = %v", rows.Data)
	}
}

func TestFKToMissingColumnAndTable(t *testing.T) {
	db := Open()
	if err := db.CreateTable(&rel.Table{
		Name:    "child",
		Columns: []rel.Column{{Name: "p", Type: rel.TypeInt}},
		ForeignKeys: []rel.ForeignKey{
			{Columns: []string{"p"}, RefTable: "ghost", RefColumns: []string{"id"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("child", []any{1}); err == nil {
		t.Error("FK to missing table should fail on insert")
	}
	// FK check against an unindexed referenced column (scan path).
	if err := db.CreateTable(&rel.Table{
		Name:    "parent2",
		Columns: []rel.Column{{Name: "k", Type: rel.TypeInt}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&rel.Table{
		Name:    "child2",
		Columns: []rel.Column{{Name: "p", Type: rel.TypeInt}},
		ForeignKeys: []rel.ForeignKey{
			{Columns: []string{"p"}, RefTable: "parent2", RefColumns: []string{"k"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("parent2", []any{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("child2", []any{7}); err != nil {
		t.Errorf("scan-path FK check: %v", err)
	}
	if _, err := db.Insert("child2", []any{8}); err == nil {
		t.Error("scan-path FK violation not caught")
	}
}

func TestJoinOnNonEquiCondition(t *testing.T) {
	db := testDB(t)
	// Nested-loop join with an inequality ON condition.
	rows := mustQuery(db, `
SELECT a.name, b.title FROM authors a JOIN books b ON b.year > 2000 + a.age - 40
WHERE a.name = 'Smith' ORDER BY b.title`)
	if len(rows.Data) != 2 {
		t.Errorf("non-equi join = %v", rows.Data)
	}
}

func TestLeftJoinWithExtraOnCondition(t *testing.T) {
	db := testDB(t)
	// LEFT JOIN where the ON carries a non-equi residual condition.
	rows := mustQuery(db, `
SELECT a.name, b.title FROM authors a
LEFT JOIN books b ON b.author = a.id AND b.year > 2000
ORDER BY a.name, b.title`)
	// Brown: Go Systems (2005); Lee: NULL; Smith: Data Models (2001).
	if len(rows.Data) != 3 {
		t.Fatalf("rows = %v", rows.Data)
	}
	if rows.Data[1][0] != "Lee" || rows.Data[1][1] != nil {
		t.Errorf("Lee row = %v", rows.Data[1])
	}
}

// TestIndexMissReturnsNoRows is the regression test for the index-miss
// scan bug: an equality lookup on an indexed column with a value absent
// from the index must return zero rows, not fall through to an
// unfiltered full scan (the consumed equality predicate is no longer in
// restPreds there, so every row came back).
func TestIndexMissReturnsNoRows(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(db, "SELECT * FROM authors WHERE id = 999999")
	if len(rows.Data) != 0 {
		t.Fatalf("index miss returned %d rows: %v", len(rows.Data), rows.Data)
	}
	// Same via a secondary index path, combined with another predicate.
	if _, _, err := execSQL(db, "CREATE INDEX authors_age ON authors (age)"); err != nil {
		t.Fatal(err)
	}
	rows = mustQuery(db, "SELECT * FROM authors WHERE age = -1 AND id > 0")
	if len(rows.Data) != 0 {
		t.Fatalf("secondary index miss returned %d rows: %v", len(rows.Data), rows.Data)
	}
}
