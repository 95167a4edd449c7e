package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func rangeDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := Open()
	if _, _, err := execSQL(db, `CREATE TABLE m (k INTEGER, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < rows; i++ {
		if _, err := db.Insert("m", []any{rng.Intn(1000), fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOrderedIndexMatchesFullScan(t *testing.T) {
	db := rangeDB(t, 2000)
	queries := []string{
		`SELECT v FROM m WHERE k >= 100 AND k < 200 ORDER BY v`,
		`SELECT v FROM m WHERE k > 990 ORDER BY v`,
		`SELECT v FROM m WHERE k <= 5 ORDER BY v`,
		`SELECT v FROM m WHERE k = 500 ORDER BY v`,
		`SELECT COUNT(*) FROM m WHERE k >= 250 AND k <= 750`,
		`SELECT v FROM m WHERE k >= 200 AND k < 100 ORDER BY v`, // empty window
	}
	var before [][][]any
	for _, q := range queries {
		rows, err := querySQL(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		before = append(before, rows.Data)
	}
	if _, _, err := execSQL(db, `CREATE ORDERED INDEX m_k ON m (k)`); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		rows, err := querySQL(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(rows.Data, before[i]) {
			t.Errorf("%s: index scan differs (%d vs %d rows)", q, len(rows.Data), len(before[i]))
		}
	}
}

func TestOrderedIndexSurvivesWrites(t *testing.T) {
	db := rangeDB(t, 200)
	if err := db.CreateOrderedIndex("m_k", "m", "k"); err != nil {
		t.Fatal(err)
	}
	baseline := func() int64 {
		rows := mustQuery(db, `SELECT COUNT(*) FROM m WHERE k >= 0 AND k <= 1000`)
		return rows.Data[0][0].(int64)
	}
	n0 := baseline()
	if _, err := db.Insert("m", []any{500, "new"}); err != nil {
		t.Fatal(err)
	}
	if got := baseline(); got != n0+1 {
		t.Errorf("after insert: %d, want %d", got, n0+1)
	}
	if _, _, err := execSQL(db, `DELETE FROM m WHERE v = 'new'`); err != nil {
		t.Fatal(err)
	}
	if got := baseline(); got != n0 {
		t.Errorf("after delete: %d, want %d", got, n0)
	}
	if _, _, err := execSQL(db, `UPDATE m SET k = 2000 WHERE k < 10`); err != nil {
		t.Fatal(err)
	}
	high := mustQuery(db, `SELECT COUNT(*) FROM m WHERE k >= 2000`)
	if high.Data[0][0].(int64) == 0 {
		t.Skip("no rows below 10 in this seed") // deterministic seed makes this unlikely
	}
	all := mustQuery(db, `SELECT COUNT(*) FROM m`)
	ranged := mustQuery(db, `SELECT COUNT(*) FROM m WHERE k >= 0 AND k <= 3000`)
	if all.Data[0][0] != ranged.Data[0][0] {
		t.Errorf("range covering everything = %v, total = %v", ranged.Data[0][0], all.Data[0][0])
	}
}

func TestOrderedIndexNullsExcluded(t *testing.T) {
	db := Open()
	if err := execScript(db, `
CREATE TABLE t (k INTEGER, v TEXT);
INSERT INTO t VALUES (1, 'a'), (NULL, 'b'), (3, 'c');
CREATE ORDERED INDEX t_k ON t (k);
`); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `SELECT v FROM t WHERE k >= 0 ORDER BY v`)
	if len(rows.Data) != 2 {
		t.Errorf("rows = %v (NULL must not match a range)", rows.Data)
	}
}

func TestOrderedIndexErrors(t *testing.T) {
	db := rangeDB(t, 10)
	if err := db.CreateOrderedIndex("ix", "nope", "k"); err == nil {
		t.Error("missing table")
	}
	if err := db.CreateOrderedIndex("ix", "m", "nope"); err == nil {
		t.Error("missing column")
	}
	if err := db.CreateOrderedIndex("ix", "m", "k"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateOrderedIndex("ix", "m", "k"); err == nil {
		t.Error("duplicate name")
	}
	if err := db.DropOrderedIndex("ix"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropOrderedIndex("ix"); err == nil {
		t.Error("double drop")
	}
	// DROP INDEX also reaches ordered indexes.
	if err := db.CreateOrderedIndex("ix2", "m", "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `DROP INDEX ix2`); err != nil {
		t.Errorf("drop via SQL: %v", err)
	}
	if _, _, err := execSQL(db, `CREATE ORDERED INDEX ix3 ON m (k, v)`); err == nil {
		t.Error("multi-column ordered index should fail")
	}
}

func TestOrderedStringRange(t *testing.T) {
	db := Open()
	if err := execScript(db, `
CREATE TABLE s (name TEXT);
INSERT INTO s VALUES ('alpha'), ('beta'), ('gamma'), ('delta');
CREATE ORDERED INDEX s_n ON s (name);
`); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `SELECT name FROM s WHERE name >= 'b' AND name < 'e' ORDER BY name`)
	if len(rows.Data) != 2 || rows.Data[0][0] != "beta" || rows.Data[1][0] != "delta" {
		t.Errorf("string range = %v", rows.Data)
	}
}
