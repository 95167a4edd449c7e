package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"xmlrdb/internal/faultfs"
)

// MVCC snapshot-read tests: cursors hold no locks while streaming, so
// writers, Checkpoint and the vacuum proceed freely under an open
// cursor, and the cursor's rows are exactly the tables' state at open.

// drainRows pulls a cursor to completion without closing it early.
func drainRows(t *testing.T, cur Cursor) [][]any {
	t.Helper()
	var out [][]any
	for cur.Next() {
		out = append(out, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor failed: %v", err)
	}
	return out
}

// TestSnapshotStableUnderWrites is the core MVCC contract: a cursor
// opened before a mix of INSERT, UPDATE and DELETE statements streams
// exactly the rows that existed at open, while the writes commit
// immediately (no blocking) and later readers see them.
func TestSnapshotStableUnderWrites(t *testing.T) {
	db := testDB(t)
	before := queryData(t, db, `SELECT id, name, age FROM authors ORDER BY id`)

	cur, err := db.QueryCursorContext(context.Background(), `SELECT id, name, age FROM authors ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	// Writers must commit while the cursor is open (pre-MVCC these would
	// deadlock against the cursor's read locks once a writer queued).
	for _, stmt := range []string{
		`UPDATE authors SET age = 99 WHERE id = 1`,
		`DELETE FROM authors WHERE id = 2`,
		`INSERT INTO authors VALUES (4, 'New', 20)`,
	} {
		if _, _, err := execSQL(db, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	got := drainRows(t, cur)
	if !reflect.DeepEqual(got, before) {
		t.Errorf("snapshot drifted:\n got %v\nwant %v", got, before)
	}
	after := queryData(t, db, `SELECT id, name, age FROM authors ORDER BY id`)
	if len(after) != 3 || after[0][2] != int64(99) || after[2][0] != int64(4) {
		t.Errorf("writes not visible to a fresh reader: %v", after)
	}
}

// TestWriterAndCheckpointProceedMidStream is the acceptance scenario: a
// reader cursor is mid-stream on a table while a writer commits to the
// same table AND a checkpoint completes — all concurrently — and the
// reader's full result is identical to its open-time snapshot.
func TestWriterAndCheckpointProceedMidStream(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("mvcc", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `CREATE TABLE ev (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	var want [][]any
	for i := 0; i < 200; i++ {
		if _, _, err := execSQL(db, fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d)`, i, i*i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, []any{int64(i), int64(i * i)})
	}

	cur, err := db.QueryCursorContext(context.Background(), `SELECT id, v FROM ev ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// Pull a few rows so the cursor is genuinely mid-stream.
	var got [][]any
	for i := 0; i < 10 && cur.Next(); i++ {
		got = append(got, cur.Row())
	}

	// Writer and checkpoint run concurrently with the open cursor; both
	// must finish promptly (pre-MVCC the checkpoint queued behind the
	// cursor's read lock and the writer behind the checkpoint).
	done := make(chan error, 2)
	go func() {
		_, _, err := execSQL(db, `UPDATE ev SET v = 0 WHERE id < 100`)
		done <- err
	}()
	go func() { done <- db.Checkpoint() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("concurrent op failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("writer or checkpoint blocked behind the open cursor")
		}
	}

	for cur.Next() {
		got = append(got, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reader saw writer's rows: got %d rows, first diff hunt: %v", len(got), got[:minInt(5, len(got))])
	}
	// The update really committed.
	if rows := queryData(t, db, `SELECT COUNT(*) FROM ev WHERE v = 0`); rows[0][0] != int64(100) {
		t.Errorf("update lost: %v", rows)
	}
}

// TestCheckpointWithOpenCursor is the regression for the reported bug:
// with a streaming cursor open (and idle), Checkpoint must complete
// rather than deadlock, and the cursor must still drain afterwards.
func TestCheckpointWithOpenCursor(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("ckpt", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db)
	before := queryData(t, db, `SELECT id, title FROM books ORDER BY id`)

	cur, err := db.QueryCursorContext(context.Background(), `SELECT id, title FROM books ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal("no rows")
	}

	ckpt := make(chan error, 1)
	go func() { ckpt <- db.Checkpoint() }()
	select {
	case err := <-ckpt:
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint deadlocked behind the open cursor")
	}

	got := [][]any{cur.Row()}
	got = append(got, drainRows(t, cur)...)
	if !reflect.DeepEqual(got, before) {
		t.Errorf("cursor broken by checkpoint: got %v want %v", got, before)
	}
}

// TestPinBookkeeping checks the snapshot-pin registry the vacuum and
// the serve guard read: pins appear at open, disappear at Close (or
// end-of-stream), and the oldest pinned epoch is the earliest open.
func TestPinBookkeeping(t *testing.T) {
	db := testDB(t)
	if n := db.PinnedCursors(); n != 0 {
		t.Fatalf("idle database pins %d cursors", n)
	}
	c1, err := db.QueryCursorContext(context.Background(), `SELECT id FROM authors`)
	if err != nil {
		t.Fatal(err)
	}
	e1, ok := db.OldestPinnedEpoch()
	if !ok || db.PinnedCursors() != 1 {
		t.Fatalf("after open: pins=%d ok=%v", db.PinnedCursors(), ok)
	}
	if _, _, err := execSQL(db, `INSERT INTO authors VALUES (7, 'Seven', 7)`); err != nil {
		t.Fatal(err)
	}
	c2, err := db.QueryCursorContext(context.Background(), `SELECT id FROM authors`)
	if err != nil {
		t.Fatal(err)
	}
	if db.PinnedCursors() != 2 {
		t.Fatalf("pins=%d, want 2", db.PinnedCursors())
	}
	if oldest, _ := db.OldestPinnedEpoch(); oldest != e1 {
		t.Errorf("oldest pinned epoch %d, want first cursor's %d", oldest, e1)
	}
	if db.Epoch() <= e1 {
		t.Errorf("epoch clock did not advance past %d on write", e1)
	}
	c1.Close()
	c1.Close() // idempotent
	if db.PinnedCursors() != 1 {
		t.Fatalf("pins=%d after first close, want 1", db.PinnedCursors())
	}
	drainRows(t, c2) // EOF self-closes
	if db.PinnedCursors() != 0 {
		t.Fatalf("pins=%d after drain, want 0", db.PinnedCursors())
	}
	if _, ok := db.OldestPinnedEpoch(); ok {
		t.Error("OldestPinnedEpoch reports a pin with no cursor open")
	}
}

// TestConcurrentCloseAndNext exercises the serve watchdog's contract
// under the race detector: Close arriving from another goroutine while
// the consumer loops on Next must be safe and must terminate the
// stream.
func TestConcurrentCloseAndNext(t *testing.T) {
	db := testDB(t)
	for round := 0; round < 50; round++ {
		cur, err := db.QueryCursorContext(context.Background(), `SELECT id, name FROM authors`)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur.Close()
		}()
		for cur.Next() {
			_ = cur.Row()
		}
		wg.Wait()
	}
	if db.PinnedCursors() != 0 {
		t.Fatalf("leaked %d pins", db.PinnedCursors())
	}
}

// hintedCursor wraps a Cursor with an inflated cardinality hint.
type hintedCursor struct {
	Cursor
	hint int
}

func (h *hintedCursor) CardinalityHint() int { return h.hint }

// TestDrainPreallocClamp: a wildly overestimated plan cardinality must
// not translate into an equally wild preallocation.
func TestDrainPreallocClamp(t *testing.T) {
	db := testDB(t)
	cur, err := db.QueryCursorContext(context.Background(), `SELECT id FROM authors`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DrainCursor(&hintedCursor{Cursor: cur, hint: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Data))
	}
	if c := cap(res.Data); c > drainPreallocCap {
		t.Errorf("hint of 1<<30 preallocated cap %d, want <= %d", c, drainPreallocCap)
	}
}

// TestCompactTableReclaimsDeletedSlots: compaction drops the nil slots
// DELETE leaves behind, rebuilds the hash indexes for the renumbered
// positions, and leaves query results and integrity intact.
func TestCompactTableReclaimsDeletedSlots(t *testing.T) {
	db := testDB(t)
	if _, _, err := execSQL(db, `DELETE FROM books WHERE year = 1999`); err != nil {
		t.Fatal(err)
	}
	removed, err := db.CompactTable("books")
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("reclaimed %d slots, want 2", removed)
	}
	db.mu.RLock()
	nrows := len(db.tables["books"].rows)
	db.mu.RUnlock()
	if nrows != 2 {
		t.Fatalf("%d slots after compaction, want 2", nrows)
	}
	got := queryData(t, db, `SELECT id, title FROM books ORDER BY id`)
	want := [][]any{{int64(11), "Go Systems"}, {int64(12), "Data Models"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-compaction rows: got %v want %v", got, want)
	}
	// The PRIMARY KEY index must resolve at the new positions.
	if got := queryData(t, db, `SELECT title FROM books WHERE id = 12`); len(got) != 1 || got[0][0] != "Data Models" {
		t.Errorf("index probe after compaction: %v", got)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Errorf("integrity after compaction: %v", err)
	}
	// Already-compact tables are a no-op.
	if n, err := db.CompactTable("books"); err != nil || n != 0 {
		t.Errorf("second compaction: n=%d err=%v", n, err)
	}
}

// TestCompactionUnderOpenCursor: an open cursor streams its captured
// snapshot even when the table is compacted (rows renumbered, slice
// replaced) underneath it.
func TestCompactionUnderOpenCursor(t *testing.T) {
	db := testDB(t)
	before := queryData(t, db, `SELECT id FROM books ORDER BY id`)
	cur, err := db.QueryCursorContext(context.Background(), `SELECT id FROM books ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, _, err := execSQL(db, `DELETE FROM books WHERE id = 10`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CompactTable("books"); err != nil {
		t.Fatal(err)
	}
	if got := drainRows(t, cur); !reflect.DeepEqual(got, before) {
		t.Errorf("cursor saw compaction: got %v want %v", got, before)
	}
	if got := queryData(t, db, `SELECT id FROM books ORDER BY id`); len(got) != len(before)-1 {
		t.Errorf("fresh reader after compaction: %v", got)
	}
}

// TestVacuumAndStartVacuum: Vacuum sweeps every table; the background
// runner compacts on its own and stops cleanly (stop is idempotent).
func TestVacuumAndStartVacuum(t *testing.T) {
	db := testDB(t)
	for _, stmt := range []string{
		`DELETE FROM books WHERE id = 10`,
		`DELETE FROM books WHERE id = 11`,
		`DELETE FROM authors WHERE id = 2`, // now unreferenced
	} {
		if _, _, err := execSQL(db, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	total, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("vacuum reclaimed %d slots, want 3", total)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := execSQL(db, `DELETE FROM books WHERE id = 12`); err != nil {
		t.Fatal(err)
	}
	stop := db.StartVacuum(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.mu.RLock()
		tbl := db.tables["books"]
		tbl.mu.RLock()
		holes := 0
		for _, row := range tbl.rows {
			if row == nil {
				holes++
			}
		}
		tbl.mu.RUnlock()
		db.mu.RUnlock()
		if holes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background vacuum never compacted the table")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// TestCompactionRecovery: the frameCompact WAL record replays to the
// exact same renumbered state — the recovered store is dump-identical
// to the live one, including writes after the compaction.
func TestCompactionRecovery(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("compact", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db)
	if _, _, err := execSQL(db, `DELETE FROM books WHERE id = 10`); err != nil {
		t.Fatal(err)
	}
	// runWorkload's own deletes may have left additional holes.
	if n, err := db.CompactTable("books"); err != nil || n < 1 {
		t.Fatalf("compact: n=%d err=%v", n, err)
	}
	// Writes after the compaction reference the renumbered positions.
	if _, _, err := execSQL(db, `INSERT INTO books VALUES (14, 'Post Compact', 1, 2020)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `UPDATE books SET year = 2021 WHERE id = 11`); err != nil {
		t.Fatal(err)
	}
	want := dumpState(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenAtOpts("compact", DurabilityOptions{FS: fs, VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpState(db2); got != want {
		t.Errorf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The recovered store accepts snapshot reads and writes as usual.
	if got := queryData(t, db2, `SELECT title FROM books WHERE id = 14`); len(got) != 1 || got[0][0] != "Post Compact" {
		t.Errorf("post-recovery probe: %v", got)
	}
}

// TestSnapshotStableAcrossJoin: multi-table cursors capture all their
// sources at one instant (under the same lock window), so a join
// stream is consistent even when both tables churn mid-stream.
func TestSnapshotStableAcrossJoin(t *testing.T) {
	db := testDB(t)
	q := `SELECT b.title, a.name FROM books b JOIN authors a ON b.author = a.id ORDER BY b.id`
	before := queryData(t, db, q)
	cur, err := db.QueryCursorContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, _, err := execSQL(db, `UPDATE authors SET name = 'Changed' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `DELETE FROM books WHERE id = 13`); err != nil {
		t.Fatal(err)
	}
	if got := drainRows(t, cur); !reflect.DeepEqual(got, before) {
		t.Errorf("join snapshot drifted:\n got %v\nwant %v", got, before)
	}
}

// BenchmarkWriterWithPinnedReaders measures writer throughput (one
// INSERT plus one UPDATE per iteration, exercising both the append and
// the copy-on-write path) while open cursors sit mid-stream on the
// same table — the EXPERIMENTS.md E16 scenario. Before MVCC a single
// open cursor stalled every writer indefinitely (throughput zero until
// the client finished streaming); now writers pay only the
// copy-on-write of the outer row slice.
func BenchmarkWriterWithPinnedReaders(b *testing.B) {
	for _, pinned := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("cursors=%d", pinned), func(b *testing.B) {
			db := Open()
			if _, _, err := execSQL(db, `CREATE TABLE ev (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
				b.Fatal(err)
			}
			rows := make([][]any, 10000)
			for i := range rows {
				rows[i] = []any{int64(i), int64(i)}
			}
			if _, err := db.InsertBatch("ev", rows); err != nil {
				b.Fatal(err)
			}
			cursors := make([]Cursor, pinned)
			for i := range cursors {
				cur, err := db.QueryCursorContext(context.Background(), `SELECT id, v FROM ev`)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 5 && cur.Next(); j++ {
				}
				cursors[i] = cur
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := int64(100000 + i)
				if _, _, err := execSQL(db, fmt.Sprintf(`INSERT INTO ev VALUES (%d, 0)`, id)); err != nil {
					b.Fatal(err)
				}
				if _, _, err := execSQL(db, fmt.Sprintf(`UPDATE ev SET v = 1 WHERE id = %d`, id)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, cur := range cursors {
				cur.Close()
			}
		})
	}
}
