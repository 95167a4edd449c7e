package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// batchDB builds a two-table schema with a self-referencing FK on nodes
// (parent may be NULL) and a cross-table FK from tags to nodes.
func batchDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	err := execScript(db, `
CREATE TABLE nodes (id INTEGER PRIMARY KEY, label TEXT NOT NULL, parent INTEGER,
  FOREIGN KEY (parent) REFERENCES nodes (id));
CREATE TABLE tags (node INTEGER NOT NULL, tag TEXT NOT NULL,
  FOREIGN KEY (node) REFERENCES nodes (id));
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInsertBatchEmpty(t *testing.T) {
	db := batchDB(t)
	for _, rows := range [][][]any{nil, {}} {
		n, err := db.InsertBatch("nodes", rows)
		if n != 0 || err != nil {
			t.Errorf("InsertBatch(empty) = (%d, %v), want (0, nil)", n, err)
		}
	}
	if got := db.RowCount("nodes"); got != 0 {
		t.Errorf("RowCount = %d after empty batches, want 0", got)
	}
}

func TestInsertBatchBasic(t *testing.T) {
	db := batchDB(t)
	n, err := db.InsertBatch("nodes", [][]any{
		{1, "root", nil},
		{2, "left", 1},
		{3, "right", 1},
	})
	if err != nil || n != 3 {
		t.Fatalf("InsertBatch = (%d, %v), want (3, nil)", n, err)
	}
	data := queryData(t, db, `SELECT label FROM nodes WHERE parent = 1 ORDER BY label`)
	if len(data) != 2 || data[0][0] != "left" || data[1][0] != "right" {
		t.Errorf("children = %v", data)
	}
}

func TestInsertBatchUnknownTable(t *testing.T) {
	db := batchDB(t)
	if _, err := db.InsertBatch("nope", [][]any{{1}}); err == nil {
		t.Fatal("InsertBatch on unknown table succeeded")
	}
}

// TestInsertBatchAtomicUnique checks that a mid-batch unique violation
// rejects the whole batch: no rows appended and no index entries left
// behind for the rows that preceded the bad one.
func TestInsertBatchAtomicUnique(t *testing.T) {
	db := batchDB(t)
	if _, err := db.Insert("nodes", []any{1, "existing", nil}); err != nil {
		t.Fatal(err)
	}
	_, err := db.InsertBatch("nodes", [][]any{
		{10, "a", nil},
		{11, "b", nil},
		{1, "dup", nil}, // violates PRIMARY KEY on id
	})
	if err == nil {
		t.Fatal("batch with duplicate key succeeded")
	}
	if !strings.Contains(err.Error(), "batch row 2") {
		t.Errorf("error %q does not name the offending row", err)
	}
	if got := db.RowCount("nodes"); got != 1 {
		t.Errorf("RowCount = %d after rejected batch, want 1", got)
	}
	// The rolled-back rows must have left no stale index entries: both a
	// unique-key probe and a fresh insert of id 10 must behave as if the
	// batch never happened.
	if rows, err := db.Lookup("nodes", []string{"id"}, []any{10}); err != nil || len(rows) != 0 {
		t.Errorf("Lookup(id=10) = (%v, %v), want no rows", rows, err)
	}
	if _, err := db.Insert("nodes", []any{10, "again", nil}); err != nil {
		t.Errorf("re-insert of rolled-back key failed: %v", err)
	}
}

// TestInsertBatchCoercionRejectedBeforeApply checks that width and NOT
// NULL problems anywhere in the batch reject it before any row lands.
func TestInsertBatchCoercionRejectedBeforeApply(t *testing.T) {
	db := batchDB(t)
	cases := map[string][][]any{
		"wrong width": {{1, "ok", nil}, {2, "short"}},
		"not null":    {{1, "ok", nil}, {2, nil, nil}},
	}
	for name, rows := range cases {
		if _, err := db.InsertBatch("nodes", rows); err == nil {
			t.Errorf("%s: batch succeeded", name)
		}
		if got := db.RowCount("nodes"); got != 0 {
			t.Errorf("%s: RowCount = %d, want 0", name, got)
		}
	}
}

// TestInsertBatchFKWithinBatch checks that a row may reference a key
// inserted earlier in the same batch, and that order still matters:
// a child before its parent fails and rolls back.
func TestInsertBatchFKWithinBatch(t *testing.T) {
	db := batchDB(t)
	if _, err := db.InsertBatch("nodes", [][]any{
		{1, "root", nil},
		{2, "child", 1}, // parent inserted by the previous batch row
	}); err != nil {
		t.Fatalf("parent-before-child batch failed: %v", err)
	}
	_, err := db.InsertBatch("nodes", [][]any{
		{4, "orphan", 5}, // parent 5 comes later — rejected
		{5, "late-parent", nil},
	})
	if err == nil {
		t.Fatal("child-before-parent batch succeeded")
	}
	if got := db.RowCount("nodes"); got != 2 {
		t.Errorf("RowCount = %d after rejected batch, want 2", got)
	}
}

// TestInsertBatchCrossTableFK checks FK enforcement from a batched
// table into another table, both the passing and failing direction.
func TestInsertBatchCrossTableFK(t *testing.T) {
	db := batchDB(t)
	if _, err := db.InsertBatch("nodes", [][]any{{1, "root", nil}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBatch("tags", [][]any{{1, "red"}, {1, "blue"}}); err != nil {
		t.Fatalf("valid tag batch failed: %v", err)
	}
	if _, err := db.InsertBatch("tags", [][]any{{1, "ok"}, {99, "dangling"}}); err == nil {
		t.Fatal("dangling tag batch succeeded")
	}
	if got := db.RowCount("tags"); got != 2 {
		t.Errorf("RowCount(tags) = %d after rejected batch, want 2", got)
	}
}

// TestConcurrentBatchesAndReads drives concurrent batched writers over
// two tables while readers scan and query; run under -race this proves
// the per-table locking has no data races.
func TestConcurrentBatchesAndReads(t *testing.T) {
	db := batchDB(t)
	if _, err := db.Insert("nodes", []any{0, "root", nil}); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := 1 + w*perWriter + i
				if _, err := db.InsertBatch("nodes", [][]any{{id, fmt.Sprintf("n%d", id), 0}}); err != nil {
					t.Errorf("nodes batch: %v", err)
					return
				}
				if _, err := db.InsertBatch("tags", [][]any{{id, "t"}, {0, "root-tag"}}); err != nil {
					t.Errorf("tags batch: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := querySQL(db, `SELECT n.label FROM nodes n JOIN tags g ON g.node = n.id WHERE n.parent = 0`); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				db.RowCount("nodes")
			}
		}()
	}
	wg.Wait()
	if got, want := db.RowCount("nodes"), 1+writers*perWriter; got != want {
		t.Errorf("RowCount(nodes) = %d, want %d", got, want)
	}
	if err := db.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}
