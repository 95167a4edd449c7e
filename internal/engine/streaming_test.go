package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmlrdb/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// planRows renders a SELECT's executed plan in the deterministic
// rows-only form the golden files pin.
func planRows(t *testing.T, db *DB, sql string) string {
	t.Helper()
	return planInOrder(t, db, sql, nil)
}

// TestDuplicateBindingRejected pins the plan-time error for two FROM
// items resolving to the same binding name: previously the second
// silently shadowed the first in the row environment.
func TestDuplicateBindingRejected(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{
		`SELECT * FROM authors a, books a`,
		`SELECT * FROM authors, authors`,
		`SELECT * FROM authors a JOIN authors a ON 1 = 1`,
	} {
		_, err := querySQL(db, sql)
		if err == nil || !strings.Contains(err.Error(), "duplicate table binding") {
			t.Errorf("%s: err = %v, want duplicate table binding", sql, err)
		}
	}
	// Distinct aliases over the same table stay legal (self join).
	if _, err := querySQL(db, `SELECT a.name FROM authors a, authors b WHERE a.id = b.id`); err != nil {
		t.Errorf("self join with distinct aliases failed: %v", err)
	}
}

// TestOrderByExprLimitSemantics pins that ORDER BY <expr> LIMIT k runs
// as a bounded top-k heap yet returns exactly what a full sort
// truncated to k would — same rows, same order, ties broken by input
// order (the stable-sort contract).
func TestOrderByExprLimitSemantics(t *testing.T) {
	db := testDB(t)
	full := queryData(t, db, `SELECT title, year * 2 AS yy FROM books ORDER BY yy DESC, title`)
	for k := 0; k <= len(full)+1; k++ {
		sql := fmt.Sprintf(`SELECT title, year * 2 AS yy FROM books ORDER BY yy DESC, title LIMIT %d`, k)
		got := queryData(t, db, sql)
		want := full
		if k < len(full) {
			want = full[:k]
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("LIMIT %d: got %v, want %v", k, got, want)
		}
		if k > 0 {
			if plan := planRows(t, db, sql); !strings.Contains(plan, "TopK") {
				t.Errorf("LIMIT %d plan lacks TopK:\n%s", k, plan)
			}
		}
	}
	// Ties: every book maps to the same key; LIMIT must keep input order.
	got := queryData(t, db, `SELECT id FROM books ORDER BY 1 = 1 LIMIT 3`)
	want := [][]any{{int64(10)}, {int64(11)}, {int64(12)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tied top-k = %v, want %v", got, want)
	}
	// OFFSET composes: the heap keeps limit+offset rows.
	got = queryData(t, db, `SELECT title FROM books ORDER BY year, title LIMIT 2 OFFSET 1`)
	fullOrdered := queryData(t, db, `SELECT title FROM books ORDER BY year, title`)
	if !reflect.DeepEqual(got, fullOrdered[1:3]) {
		t.Errorf("LIMIT 2 OFFSET 1 = %v, want %v", got, fullOrdered[1:3])
	}
}

// TestDistinctOrderByExprSemantics pins DISTINCT + ORDER BY over an
// expression: distinct applies to the projected values (not the sort
// keys), keeps the first occurrence in sort order, and never uses the
// top-k heap (which would drop rows before dedup sees them).
func TestDistinctOrderByExprSemantics(t *testing.T) {
	db := testDB(t)
	got := queryData(t, db, `SELECT DISTINCT year + 0 AS y FROM books ORDER BY y DESC`)
	want := [][]any{{int64(2005)}, {int64(2001)}, {int64(1999)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DISTINCT ORDER BY expr = %v, want %v", got, want)
	}
	sql := `SELECT DISTINCT year + 0 AS y FROM books ORDER BY y DESC LIMIT 2`
	got = queryData(t, db, sql)
	if !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("DISTINCT ... LIMIT = %v, want %v", got, want[:2])
	}
	plan := planRows(t, db, sql)
	if strings.Contains(plan, "TopK") {
		t.Errorf("DISTINCT plan must not use TopK:\n%s", plan)
	}
	for _, op := range []string{"Limit(2)", "Distinct", "Sort"} {
		if !strings.Contains(plan, op) {
			t.Errorf("DISTINCT plan lacks %s:\n%s", op, plan)
		}
	}
}

// limitDB builds a wide table (plus a small dimension table) with a
// metrics hub attached, for the short-circuit proofs.
func limitDB(tb testing.TB, rows int) (*DB, *obs.Metrics) {
	tb.Helper()
	db := Open()
	m := obs.New()
	db.SetMetrics(m)
	err := execScript(db, `
CREATE TABLE big (id INTEGER PRIMARY KEY, d INTEGER NOT NULL, val TEXT NOT NULL);
CREATE TABLE dims (id INTEGER PRIMARY KEY, name TEXT NOT NULL);
`)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.InsertBatch("dims", [][]any{{i, fmt.Sprintf("dim-%d", i)}}); err != nil {
			tb.Fatal(err)
		}
	}
	const chunk = 5000
	for at := 0; at < rows; at += chunk {
		n := chunk
		if at+n > rows {
			n = rows - at
		}
		batch := make([][]any, n)
		for i := range batch {
			id := at + i
			batch[i] = []any{id, id % 8, fmt.Sprintf("v%d", id)}
		}
		if _, err := db.InsertBatch("big", batch); err != nil {
			tb.Fatal(err)
		}
	}
	return db, m
}

// TestLimitShortCircuitsScan is the iterator-model proof: LIMIT 10
// over a 100k-row table must visit ~10 rows, not 100k — unjoined, and
// on the probe side of a hash join (the build side still reads its
// whole, small input).
func TestLimitShortCircuitsScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-row table")
	}
	const total = 100_000
	db, m := limitDB(t, total)

	rows, err := querySQL(db, `SELECT id FROM big LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows.Data))
	}
	scanned := m.Snapshot().Tables["big"].RowsScanned
	if scanned > 32 {
		t.Errorf("unjoined LIMIT 10 scanned %d rows of big, want ~10", scanned)
	}

	rows, err = querySQL(db, `SELECT b.id, d.name FROM big b JOIN dims d ON b.d = d.id LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 10 {
		t.Fatalf("joined: got %d rows, want 10", len(rows.Data))
	}
	s := m.Snapshot()
	joinScanned := s.Tables["big"].RowsScanned - scanned
	if joinScanned > 64 {
		t.Errorf("joined LIMIT 10 scanned %d rows of big, want ~10", joinScanned)
	}
	if s.Tables["dims"].RowsScanned != 8 {
		t.Errorf("build side scanned %d rows of dims, want all 8", s.Tables["dims"].RowsScanned)
	}
	if s.Engine.RowsOut < 20 {
		t.Errorf("RowsOut = %d, want >= 20", s.Engine.RowsOut)
	}
	if s.Engine.OpRows.Limit != 20 {
		t.Errorf("limit operator rows = %d, want 20", s.Engine.OpRows.Limit)
	}
}

// TestCursorReleasesLocksOnClose abandons a cursor mid-stream and
// checks Close releases the read locks: a write to the scanned table
// must succeed afterwards (it would deadlock against a leaked lock).
func TestCursorReleasesLocksOnClose(t *testing.T) {
	db := testDB(t)
	cur, err := db.QueryCursorContext(context.Background(), `SELECT name FROM authors`)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if cur.Next() {
		t.Fatal("Next after Close returned a row")
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := execSQL(db, `INSERT INTO authors VALUES (9, 'Late', 20)`)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("write after cursor Close: %v", err)
	}
}

// TestCursorCancellationMidStream cancels the context after the first
// rows arrive; the iterator core's poll must abort the scan and
// surface the context error through Err.
func TestCursorCancellationMidStream(t *testing.T) {
	db, _ := limitDB(t, 5_000)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := db.QueryCursorContext(ctx, `SELECT id FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 3; i++ {
		if !cur.Next() {
			t.Fatalf("row %d missing: %v", i, cur.Err())
		}
	}
	cancel()
	n := 0
	for cur.Next() {
		n++
	}
	if n >= 5_000 {
		t.Fatalf("scan ran to completion (%d rows) after cancel", n)
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	// A cancelled cursor must still have released its locks.
	if _, _, err := execSQL(db, `INSERT INTO big VALUES (1000000, 0, 'after')`); err != nil {
		t.Fatalf("write after cancelled cursor: %v", err)
	}
}

// TestExplainGoldenPlans pins the executed physical plan (operators,
// cardinality hints, actual row counts) for the planner's main shapes.
// Regenerate with: go test ./internal/engine -run TestExplainGoldenPlans -update
func TestExplainGoldenPlans(t *testing.T) {
	db := testDB(t)
	if _, _, err := execSQL(db, `CREATE INDEX books_year ON books (year)`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sql  string
	}{
		{"point_lookup", `SELECT title FROM books WHERE year = 1999`},
		{"hash_join", `SELECT b.title, a.name FROM books b JOIN authors a ON b.author = a.id ORDER BY b.title`},
		{"left_join", `SELECT a.name, b.title FROM authors a LEFT JOIN books b ON b.author = a.id ORDER BY a.name, b.title`},
		{"topk", `SELECT title FROM books ORDER BY year DESC, title LIMIT 2`},
		{"aggregate", `SELECT a.name, COUNT(*) AS n FROM books b JOIN authors a ON b.author = a.id GROUP BY a.name ORDER BY a.name`},
		// Vectorized pipelines and the fallback boundary (vector.go):
		// grouped aggregation over a scan batches; a LIKE predicate is
		// outside the compiled kernels and keeps the row-at-a-time tree;
		// a LIMIT above a vectorized projection bounds the first batch.
		{"vec_aggregate", `SELECT author, COUNT(*) AS n, MAX(year) AS y FROM books GROUP BY author ORDER BY author`},
		{"vec_fallback", `SELECT title FROM books WHERE title LIKE 'X%'`},
		{"vec_limit", `SELECT title FROM books WHERE year >= 1999 LIMIT 2`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := planRows(t, db, tc.sql)
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// BenchmarkStreamingLimit measures SELECT ... LIMIT 10 over a 100k-row
// table, unjoined and joined: with the streaming iterator path this is
// O(k + matched), independent of table size (E9b).
func BenchmarkStreamingLimit(b *testing.B) {
	const total = 100_000
	db, _ := limitDB(b, total)
	bench := func(b *testing.B, sql string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := querySQL(db, sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows.Data) != 10 {
				b.Fatalf("got %d rows", len(rows.Data))
			}
		}
	}
	b.Run("unjoined", func(b *testing.B) {
		bench(b, `SELECT id, val FROM big LIMIT 10`)
	})
	b.Run("joined", func(b *testing.B) {
		bench(b, `SELECT b.id, d.name FROM big b JOIN dims d ON b.d = d.id LIMIT 10`)
	})
	b.Run("unjoined-full", func(b *testing.B) {
		// The O(n) baseline the LIMIT runs must beat by orders of magnitude.
		for i := 0; i < b.N; i++ {
			rows, err := querySQL(db, `SELECT COUNT(*) FROM big`)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows.Data) != 1 {
				b.Fatal("bad count result")
			}
		}
	})
}
