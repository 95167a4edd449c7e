package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/rel"
)

// obsDB opens a one-table engine with a fresh metrics hub attached.
func obsDB(t *testing.T) (*DB, *obs.Metrics) {
	t.Helper()
	db := Open()
	m := obs.New()
	db.SetMetrics(m)
	err := execScript(db, `
CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER NOT NULL, label TEXT NOT NULL);
`)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

// TestMetricsExactUnderParallelInsertBatch is the race-detector proof
// that the counters are both data-race-free and exact: G goroutines
// each issue B batches of R rows, and every counter must land on the
// precise expected value — no lost updates, no double counting.
func TestMetricsExactUnderParallelInsertBatch(t *testing.T) {
	db, m := obsDB(t)
	const (
		goroutines = 8
		batches    = 25
		rowsPer    = 10
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([][]any, rowsPer)
				for r := 0; r < rowsPer; r++ {
					id := g*batches*rowsPer + b*rowsPer + r
					rows[r] = []any{id, g, fmt.Sprintf("g%d-b%d-r%d", g, b, r)}
				}
				if _, err := db.InsertBatch("items", rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	const wantRows = goroutines * batches * rowsPer
	if got := db.RowCount("items"); got != wantRows {
		t.Fatalf("RowCount = %d, want %d", got, wantRows)
	}
	s := m.Snapshot()
	ts := s.Tables["items"]
	if ts.RowsInserted != wantRows {
		t.Errorf("RowsInserted = %d, want %d", ts.RowsInserted, wantRows)
	}
	if ts.Batches != goroutines*batches {
		t.Errorf("Batches = %d, want %d", ts.Batches, goroutines*batches)
	}
	if ts.BatchRows.Count != goroutines*batches {
		t.Errorf("BatchRows.Count = %d, want %d", ts.BatchRows.Count, goroutines*batches)
	}
	if ts.BatchRows.Sum != wantRows {
		t.Errorf("BatchRows.Sum = %d, want %d", ts.BatchRows.Sum, wantRows)
	}
	if ts.BatchRows.Max != rowsPer {
		t.Errorf("BatchRows.Max = %d, want %d", ts.BatchRows.Max, rowsPer)
	}
	// Every batch acquires the table's row lock at least once.
	if ts.LockWaits < goroutines*batches {
		t.Errorf("LockWaits = %d, want >= %d", ts.LockWaits, goroutines*batches)
	}
}

// TestMetricsFailedBatchNotCounted proves a rolled-back batch leaves
// the row counters untouched.
func TestMetricsFailedBatchNotCounted(t *testing.T) {
	db, m := obsDB(t)
	if _, err := db.InsertBatch("items", [][]any{
		{1, 1, "ok"},
		{1, 1, "dup primary key"},
	}); err == nil {
		t.Fatal("duplicate-key batch succeeded")
	}
	ts := m.Snapshot().Tables["items"]
	if ts.RowsInserted != 0 || ts.Batches != 0 {
		t.Fatalf("failed batch counted: rows=%d batches=%d", ts.RowsInserted, ts.Batches)
	}
	if got := db.RowCount("items"); got != 0 {
		t.Fatalf("RowCount = %d after rollback, want 0", got)
	}
}

func TestMetricsStatementKinds(t *testing.T) {
	db, m := obsDB(t)
	stmts := []string{
		`INSERT INTO items (id, grp, label) VALUES (1, 1, 'a')`,
		`SELECT label FROM items`,
		`UPDATE items SET label = 'b' WHERE id = 1`,
		`DELETE FROM items WHERE id = 1`,
	}
	for _, s := range stmts {
		if _, _, err := execSQL(db, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	s := m.Snapshot()
	if s.Engine.InsertStmts != 1 || s.Engine.Selects != 1 ||
		s.Engine.Updates != 1 || s.Engine.Deletes != 1 {
		t.Fatalf("stmt counters = %+v", s.Engine)
	}
	// +1: the CREATE TABLE from setup counts as an "other" statement.
	if s.Engine.OtherStmts != 1 {
		t.Fatalf("OtherStmts = %d, want 1", s.Engine.OtherStmts)
	}
	if s.Engine.ExecLatency.Count != int64(len(stmts))+1 {
		t.Fatalf("ExecLatency.Count = %d, want %d", s.Engine.ExecLatency.Count, len(stmts)+1)
	}
}

func TestSlowQueryTrace(t *testing.T) {
	db, m := obsDB(t)
	var ct obs.CollectTracer
	db.SetTracer(&ct)
	db.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	if _, _, err := execSQL(db, `SELECT id FROM items`); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Engine.SlowQueries; got < 1 {
		t.Fatalf("SlowQueries = %d, want >= 1", got)
	}
	evs := ct.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events emitted")
	}
	found := false
	for _, ev := range evs {
		if ev.Scope == "engine" && ev.Name == "slow-query" && ev.Detail == `SELECT id FROM items` {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-query event with SQL detail: %+v", evs)
	}
}

// TestSlowQueryOffByDefault proves the threshold defaults to disabled.
func TestSlowQueryOffByDefault(t *testing.T) {
	db, m := obsDB(t)
	var ct obs.CollectTracer
	db.SetTracer(&ct)
	if _, _, err := execSQL(db, `SELECT id FROM items`); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Engine.SlowQueries; got != 0 {
		t.Fatalf("SlowQueries = %d with no threshold, want 0", got)
	}
	for _, ev := range ct.Events() {
		if ev.Name == "slow-query" {
			t.Fatalf("slow-query event emitted with no threshold: %+v", ev)
		}
	}
}

func TestMetricsLookupPaths(t *testing.T) {
	db, m := obsDB(t)
	for i := 1; i <= 4; i++ {
		if _, err := db.Insert("items", []any{i, i % 2, "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// Primary-key lookup hits the index; grp has none and scans.
	if _, err := db.Lookup("items", []string{"id"}, []any{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("items", []string{"grp"}, []any{1}); err != nil {
		t.Fatal(err)
	}
	ts := m.Snapshot().Tables["items"]
	if ts.IndexHits < 1 {
		t.Errorf("IndexHits = %d, want >= 1", ts.IndexHits)
	}
	if ts.Scans < 1 {
		t.Errorf("Scans = %d, want >= 1", ts.Scans)
	}
	if ts.Inserts != 4 || ts.RowsInserted != 4 {
		t.Errorf("Inserts = %d RowsInserted = %d, want 4/4", ts.Inserts, ts.RowsInserted)
	}
}

// TestFailedOpenObservedOnEveryEntryPoint pins the one rule for a SELECT
// that fails before its cursor exists (a binding error, a context
// already cancelled): whichever entry point ran it, it counts once in
// Selects, ExecLatency and its fingerprint's query statistics.
func TestFailedOpenObservedOnEveryEntryPoint(t *testing.T) {
	db, m := obsDB(t)
	const bad = `SELECT id FROM missing`
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	opens := []struct {
		name string
		open func() error
	}{
		{"QueryCursorContext", func() error {
			_, err := db.QueryCursorContext(context.Background(), bad)
			return err
		}},
		{"ExecCursorContext", func() error {
			_, err := db.ExecCursorContext(context.Background(), bad)
			return err
		}},
		{"cancelled context", func() error {
			_, err := db.QueryCursorContext(cancelled, `SELECT id FROM items`)
			return err
		}},
	}
	for i, o := range opens {
		before := m.Snapshot().Engine
		if err := o.open(); err == nil {
			t.Fatalf("%s: open succeeded", o.name)
		}
		after := m.Snapshot().Engine
		if got := after.Selects - before.Selects; got != 1 {
			t.Errorf("%s: Selects +%d, want +1", o.name, got)
		}
		if got := after.ExecLatency.Count - before.ExecLatency.Count; got != 1 {
			t.Errorf("%s: ExecLatency.Count +%d, want +1", o.name, got)
		}
		var errs int64
		for _, q := range m.Snapshot().Queries {
			errs += q.Errors
		}
		if errs != int64(i+1) {
			t.Errorf("%s: query statistics hold %d errors, want %d", o.name, errs, i+1)
		}
	}
}

// TestReadsNeverCheckpoint pins that only writes run the automatic
// checkpoint: with a checkpoint already due (a DDL frame logged outside
// the statement path), reads through either entry point leave it due,
// and the next write statement takes it.
func TestReadsNeverCheckpoint(t *testing.T) {
	m := obs.New()
	db, err := OpenAtOpts("data", DurabilityOptions{FS: faultfs.NewMem(), SnapshotEvery: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	def := &rel.Table{Name: "kv", Columns: []rel.Column{{Name: "k", Type: rel.TypeInt}}}
	if err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, open := range []func(context.Context, string) (Cursor, error){db.QueryCursorContext, db.ExecCursorContext} {
		cur, err := open(ctx, `SELECT k FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DrainCursor(cur); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Snapshot().WAL.Snapshots; got != 0 {
		t.Fatalf("reads took %d checkpoints, want 0", got)
	}
	if _, err := db.ExecCursorContext(ctx, `INSERT INTO kv VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().WAL.Snapshots; got != 1 {
		t.Fatalf("write took %d checkpoints, want 1", got)
	}
}
