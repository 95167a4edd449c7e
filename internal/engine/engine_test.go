package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"xmlrdb/internal/rel"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	err := execScript(db, `
CREATE TABLE authors (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INTEGER);
CREATE TABLE books (id INTEGER PRIMARY KEY, title TEXT NOT NULL, author INTEGER,
  year INTEGER, FOREIGN KEY (author) REFERENCES authors (id));
INSERT INTO authors (id, name, age) VALUES (1, 'Smith', 40), (2, 'Brown', 35), (3, 'Lee', 50);
INSERT INTO books VALUES (10, 'XML RDBMS', 1, 1999), (11, 'Go Systems', 2, 2005),
  (12, 'Data Models', 1, 2001), (13, 'Orphanless', 3, 1999);
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func queryData(t *testing.T, db *DB, sql string) [][]any {
	t.Helper()
	rows, err := querySQL(db, sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows.Data
}

func TestBasicSelect(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `SELECT name FROM authors ORDER BY name`)
	want := [][]any{{"Brown"}, {"Lee"}, {"Smith"}}
	if !reflect.DeepEqual(data, want) {
		t.Errorf("got %v, want %v", data, want)
	}
}

func TestWhereAndProjection(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `SELECT title, year FROM books WHERE year > 2000 ORDER BY year DESC`)
	if len(data) != 2 || data[0][0] != "Go Systems" || data[1][1] != int64(2001) {
		t.Errorf("got %v", data)
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{
		`SELECT b.title, a.name FROM books b JOIN authors a ON b.author = a.id WHERE a.name = 'Smith' ORDER BY b.title`,
		`SELECT b.title, a.name FROM books b, authors a WHERE b.author = a.id AND a.name = 'Smith' ORDER BY b.title`,
	} {
		data := queryData(t, db, sql)
		if len(data) != 2 || data[0][0] != "Data Models" || data[1][0] != "XML RDBMS" {
			t.Errorf("%s:\n got %v", sql, data)
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	err := execScript(db, `
CREATE TABLE awards (book INTEGER, prize TEXT);
INSERT INTO awards VALUES (10, 'Best Paper'), (12, 'Honorable');
`)
	if err != nil {
		t.Fatal(err)
	}
	data := queryData(t, db, `
SELECT a.name, w.prize FROM authors a
JOIN books b ON b.author = a.id
JOIN awards w ON w.book = b.id
ORDER BY w.prize`)
	if len(data) != 2 || data[0][0] != "Smith" || data[0][1] != "Best Paper" {
		t.Errorf("got %v", data)
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	err := execScript(db, `
CREATE TABLE reviews (book INTEGER, stars INTEGER);
INSERT INTO reviews VALUES (10, 5);
`)
	if err != nil {
		t.Fatal(err)
	}
	data := queryData(t, db, `
SELECT b.title, r.stars FROM books b LEFT JOIN reviews r ON r.book = b.id ORDER BY b.id`)
	if len(data) != 4 {
		t.Fatalf("got %d rows", len(data))
	}
	if data[0][1] != int64(5) {
		t.Errorf("matched row = %v", data[0])
	}
	if data[1][1] != nil {
		t.Errorf("unmatched row should have NULL stars: %v", data[1])
	}
	// WHERE IS NULL over left join finds unmatched rows.
	data = queryData(t, db, `
SELECT b.title FROM books b LEFT JOIN reviews r ON r.book = b.id WHERE r.stars IS NULL ORDER BY b.id`)
	if len(data) != 3 {
		t.Errorf("anti-join rows = %v", data)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `
SELECT a.name, COUNT(*) n, MIN(b.year), MAX(b.year)
FROM authors a JOIN books b ON b.author = a.id
GROUP BY a.name ORDER BY n DESC, a.name`)
	if len(data) != 3 {
		t.Fatalf("groups = %v", data)
	}
	if data[0][0] != "Smith" || data[0][1] != int64(2) ||
		data[0][2] != int64(1999) || data[0][3] != int64(2001) {
		t.Errorf("smith row = %v", data[0])
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `
SELECT author, COUNT(*) FROM books GROUP BY author HAVING COUNT(*) > 1`)
	if len(data) != 1 || data[0][0] != int64(1) {
		t.Errorf("got %v", data)
	}
}

func TestGlobalAggregates(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `SELECT COUNT(*), SUM(year), AVG(age) FROM books, authors WHERE books.author = authors.id`)
	if len(data) != 1 {
		t.Fatalf("got %v", data)
	}
	if data[0][0] != int64(4) {
		t.Errorf("count = %v", data[0][0])
	}
	if data[0][1] != int64(1999+2005+2001+1999) {
		t.Errorf("sum = %v", data[0][1])
	}
	// Aggregate over empty input yields one row.
	data = queryData(t, db, `SELECT COUNT(*), MAX(year) FROM books WHERE year > 3000`)
	if len(data) != 1 || data[0][0] != int64(0) || data[0][1] != nil {
		t.Errorf("empty agg = %v", data)
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `SELECT COUNT(DISTINCT year) FROM books`)
	if data[0][0] != int64(3) {
		t.Errorf("distinct years = %v", data[0][0])
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `SELECT DISTINCT year FROM books ORDER BY year`)
	if len(data) != 3 || data[0][0] != int64(1999) {
		t.Errorf("got %v", data)
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `SELECT id FROM books ORDER BY id LIMIT 2 OFFSET 1`)
	if len(data) != 2 || data[0][0] != int64(11) || data[1][0] != int64(12) {
		t.Errorf("got %v", data)
	}
	if got := queryData(t, db, `SELECT id FROM books ORDER BY id LIMIT 0`); len(got) != 0 {
		t.Errorf("limit 0 = %v", got)
	}
	if _, err := querySQL(db, `SELECT id FROM books OFFSET`); err == nil {
		t.Error("bad syntax accepted")
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `
SELECT UPPER(name), LENGTH(name), age * 2 + 1 FROM authors WHERE name = 'Lee'`)
	if data[0][0] != "LEE" || data[0][1] != int64(3) || data[0][2] != int64(101) {
		t.Errorf("got %v", data[0])
	}
	data = queryData(t, db, `SELECT name FROM authors WHERE name LIKE '%e%' ORDER BY name`)
	if len(data) != 1 || data[0][0] != "Lee" {
		t.Errorf("like = %v", data)
	}
	data = queryData(t, db, `SELECT name FROM authors WHERE age IN (35, 50) ORDER BY age`)
	if len(data) != 2 || data[0][0] != "Brown" {
		t.Errorf("in = %v", data)
	}
	data = queryData(t, db, `SELECT COALESCE(NULL, 'x'), 'a' + 'b' FROM authors LIMIT 1`)
	if data[0][0] != "x" || data[0][1] != "ab" {
		t.Errorf("coalesce/concat = %v", data[0])
	}
}

func TestOrderByPositionAndAlias(t *testing.T) {
	db := testDB(t)
	a := queryData(t, db, `SELECT name, age FROM authors ORDER BY 2 DESC`)
	if a[0][0] != "Lee" {
		t.Errorf("positional order = %v", a)
	}
	b := queryData(t, db, `SELECT name, age AS years FROM authors ORDER BY years`)
	if b[0][0] != "Brown" {
		t.Errorf("alias order = %v", b)
	}
}

func TestConstraints(t *testing.T) {
	db := testDB(t)
	// PK duplicate.
	_, _, err := execSQL(db, `INSERT INTO authors VALUES (1, 'Dup', 1)`)
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("pk dup err = %v", err)
	}
	// NOT NULL.
	_, _, err = execSQL(db, `INSERT INTO authors (id, age) VALUES (9, 3)`)
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("not null err = %v", err)
	}
	// FK violation.
	_, _, err = execSQL(db, `INSERT INTO books VALUES (20, 'Ghost', 99, 2000)`)
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("fk err = %v", err)
	}
	// NULL FK allowed.
	if _, _, err = execSQL(db, `INSERT INTO books VALUES (21, 'NoAuthor', NULL, 2000)`); err != nil {
		t.Errorf("null fk: %v", err)
	}
	// FK enforcement off, as during WAL replay.
	db.enforceFK = false
	if _, _, err = execSQL(db, `INSERT INTO books VALUES (22, 'Ghost2', 99, 2000)`); err != nil {
		t.Errorf("fk off: %v", err)
	}
	if err := db.CheckAllFKs(); err == nil {
		t.Error("CheckAllFKs should report the dangling row")
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := Open()
	err := db.CreateTable(&rel.Table{
		Name: "t",
		Columns: []rel.Column{
			{Name: "a", Type: rel.TypeInt},
			{Name: "b", Type: rel.TypeText},
		},
		Uniques: [][]string{{"a", "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", []any{1, "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", []any{1, "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", []any{1, "x"}); !errors.Is(err, ErrConstraint) {
		t.Errorf("unique dup err = %v", err)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := testDB(t)
	res, _, err := execSQL(db, `UPDATE authors SET age = age + 1 WHERE name = 'Lee'`)
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
	if data := queryData(t, db, `SELECT age FROM authors WHERE name = 'Lee'`); data[0][0] != int64(51) {
		t.Errorf("age = %v", data[0][0])
	}
	res, _, err = execSQL(db, `DELETE FROM books WHERE year = 1999`)
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("delete: %v %v", res, err)
	}
	if db.RowCount("books") != 2 {
		t.Errorf("rows = %d", db.RowCount("books"))
	}
	// Updating a PK to a duplicate must fail.
	_, _, err = execSQL(db, `UPDATE authors SET id = 2 WHERE id = 1`)
	if !errors.Is(err, ErrConstraint) {
		t.Errorf("pk update err = %v", err)
	}
	// Index consistency after delete: the unique scan still works.
	if _, _, err = execSQL(db, `INSERT INTO books VALUES (10, 'Reused', 1, 2024)`); err != nil {
		t.Errorf("reuse deleted pk: %v", err)
	}
}

func TestIndexScanMatchesFullScan(t *testing.T) {
	db := Open()
	if err := db.CreateTable(&rel.Table{
		Name: "n",
		Columns: []rel.Column{
			{Name: "k", Type: rel.TypeInt},
			{Name: "v", Type: rel.TypeText},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Insert("n", []any{i % 50, fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := queryData(t, db, `SELECT v FROM n WHERE k = 7 ORDER BY v`)
	if err := db.CreateIndex("n_k", "n", []string{"k"}, false); err != nil {
		t.Fatal(err)
	}
	after := queryData(t, db, `SELECT v FROM n WHERE k = 7 ORDER BY v`)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("index scan differs: %d vs %d rows", len(before), len(after))
	}
	if len(after) != 10 {
		t.Errorf("rows = %d, want 10", len(after))
	}
	if err := db.DropIndex("n_k"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("n_k"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := testDB(t)
	data := queryData(t, db, `
SELECT b1.title, b2.title FROM books b1, books b2
WHERE b1.year = b2.year AND b1.id < b2.id`)
	if len(data) != 1 || data[0][0] != "XML RDBMS" || data[0][1] != "Orphanless" {
		t.Errorf("self join = %v", data)
	}
}

func TestStarForms(t *testing.T) {
	db := testDB(t)
	rows, err := querySQL(db, `SELECT * FROM authors WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Cols) != 3 || rows.Cols[0] != "id" {
		t.Errorf("cols = %v", rows.Cols)
	}
	rows, err = querySQL(db, `SELECT a.* FROM authors a JOIN books b ON b.author = a.id WHERE b.id = 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Cols) != 3 || len(rows.Data) != 1 {
		t.Errorf("qualified star = %v %v", rows.Cols, rows.Data)
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		`SELECT * FROM nope`,
		`SELECT nope FROM authors`,
		`SELECT id FROM authors, books`, // ambiguous id
		`SELECT * FROM authors a, authors a`,
		`INSERT INTO authors VALUES (1)`,
		`SELECT SUM(name) FROM authors GROUP BY name HAVING SUM(name) > 0`,
	}
	for _, sql := range cases {
		if _, _, err := execSQL(db, sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
	if _, err := querySQL(db, `DELETE FROM books`); err == nil {
		t.Error("Query of non-select should fail")
	}
}

func TestDropTableIfExists(t *testing.T) {
	db := testDB(t)
	if _, _, err := execSQL(db, `DROP TABLE IF EXISTS nope`); err != nil {
		t.Errorf("if exists: %v", err)
	}
	if _, _, err := execSQL(db, `DROP TABLE nope`); err == nil {
		t.Error("drop missing should fail")
	}
	if _, _, err := execSQL(db, `DROP TABLE books`); err != nil {
		t.Fatal(err)
	}
	if db.TableDef("books") != nil {
		t.Error("books should be gone")
	}
}

func TestStatsHelpers(t *testing.T) {
	db := testDB(t)
	if db.TotalRows() != 7 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
	if db.ApproxBytes() <= 0 {
		t.Error("ApproxBytes = 0")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "authors" {
		t.Errorf("names = %v", names)
	}
}

func TestNullSemantics(t *testing.T) {
	db := testDB(t)
	if _, _, err := execSQL(db, `INSERT INTO authors VALUES (9, 'NoAge', NULL)`); err != nil {
		t.Fatal(err)
	}
	// NULL never compares equal.
	if got := queryData(t, db, `SELECT name FROM authors WHERE age = NULL`); len(got) != 0 {
		t.Errorf("= NULL matched %v", got)
	}
	if got := queryData(t, db, `SELECT name FROM authors WHERE age IS NULL`); len(got) != 1 {
		t.Errorf("IS NULL = %v", got)
	}
	// Aggregates skip NULLs.
	if got := queryData(t, db, `SELECT COUNT(age), COUNT(*) FROM authors`); got[0][0] != int64(3) || got[0][1] != int64(4) {
		t.Errorf("count null = %v", got)
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "a%c%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestInsertMap(t *testing.T) {
	db := testDB(t)
	if _, err := db.InsertMap("authors", map[string]any{"id": 50, "name": "MapRow"}); err != nil {
		t.Fatal(err)
	}
	got := queryData(t, db, `SELECT age FROM authors WHERE id = 50`)
	if got[0][0] != nil {
		t.Errorf("omitted column = %v", got[0][0])
	}
	if _, err := db.InsertMap("authors", map[string]any{"nope": 1}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestConcurrentReads(t *testing.T) {
	db := testDB(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := querySQL(db, `SELECT COUNT(*) FROM books JOIN authors ON books.author = authors.id`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTypeCoercion(t *testing.T) {
	db := Open()
	if err := db.CreateTable(&rel.Table{
		Name: "t",
		Columns: []rel.Column{
			{Name: "i", Type: rel.TypeInt},
			{Name: "f", Type: rel.TypeFloat},
			{Name: "s", Type: rel.TypeText},
			{Name: "b", Type: rel.TypeBool},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", []any{"42", 7, 99, "true"}); err != nil {
		t.Fatal(err)
	}
	got := queryData(t, db, `SELECT i, f, s, b FROM t`)
	if got[0][0] != int64(42) || got[0][1] != float64(7) || got[0][2] != "99" || got[0][3] != true {
		t.Errorf("coerced row = %v", got[0])
	}
	if _, err := db.Insert("t", []any{"notanint", 0, "", false}); err == nil {
		t.Error("bad int coercion should fail")
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	db := testDB(t)
	if _, _, err := execSQL(db, `INSERT INTO authors VALUES (8, 'Null Age', NULL)`); err != nil {
		t.Fatal(err)
	}
	got := queryData(t, db, `SELECT name FROM authors ORDER BY age, name`)
	if got[0][0] != "Null Age" {
		t.Errorf("nulls should sort first: %v", got)
	}
}

func TestStringsOrderingInWhere(t *testing.T) {
	db := testDB(t)
	got := queryData(t, db, `SELECT name FROM authors WHERE name >= 'L' AND name < 'S' ORDER BY name`)
	if len(got) != 1 || got[0][0] != "Lee" {
		t.Errorf("range = %v", got)
	}
}
