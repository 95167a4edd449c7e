package engine

import (
	"errors"
	"fmt"
	"testing"

	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/shred"
)

// The crash matrix kills a scripted workload at every byte offset (torn
// writes) and at every fsync boundary (page-cache loss), then asserts
// the recovered database is exactly the state after the last operation
// whose API call returned success — committed operations fully present,
// the crashed operation fully absent, indexes and foreign keys intact.
//
// Every scripted op commits at most one WAL frame, so op-level success
// is the unit of durability the matrix checks.

type scriptOp struct {
	name string
	run  func(db *DB) error
}

func exec1(sql string) func(db *DB) error {
	return func(db *DB) error {
		_, _, err := execSQL(db, sql)
		return err
	}
}

// crashWorkload covers every frame kind: single inserts, an atomic
// batch, an atomic multi-table batch, UPDATE, DELETE, all four DDL
// forms, an explicit checkpoint mid-stream, and vacuum compactions
// (frameCompact) both directly and through the Vacuum sweep — a kill
// during version reclamation must recover to the exact WAL prefix
// like any other op.
func crashWorkload() []scriptOp {
	return []scriptOp{
		{"create authors", exec1(`CREATE TABLE authors (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INTEGER)`)},
		{"create books", exec1(`CREATE TABLE books (id INTEGER PRIMARY KEY, title TEXT NOT NULL, author INTEGER, year INTEGER, FOREIGN KEY (author) REFERENCES authors (id))`)},
		{"insert smith", exec1(`INSERT INTO authors VALUES (1, 'Smith', 40)`)},
		{"insert brown", exec1(`INSERT INTO authors VALUES (2, 'Brown', 35)`)},
		{"batch books", func(db *DB) error {
			_, err := db.InsertBatch("books", [][]any{
				{10, "XML RDBMS", 1, 1999},
				{11, "Go Systems", 2, 2005},
				{12, "Data Models", 1, 2001},
			})
			return err
		}},
		{"multi author+book", func(db *DB) error {
			_, err := db.InsertBatchMulti(
				[]string{"authors", "books"},
				[][][]any{{{3, "Lee", 50}}, {{13, "Orphanless", 3, 1999}}},
			)
			return err
		}},
		{"index books_year", exec1(`CREATE INDEX books_year ON books (year)`)},
		{"ordered books_ord", exec1(`CREATE ORDERED INDEX books_ord ON books (year)`)},
		{"update year", exec1(`UPDATE books SET year = 2002 WHERE id = 12`)},
		{"delete book", exec1(`DELETE FROM books WHERE id = 11`)},
		// Compaction renumbers the rows; every later frame references the
		// renumbered positions, so a torn compact frame that replays
		// half-heartedly would corrupt everything after it.
		{"compact books", func(db *DB) error {
			_, err := db.CompactTable("books")
			return err
		}},
		// One frameStats before the checkpoint (so the snapshot's
		// dictionary sections and stats header get torn) and one after
		// (so WAL replay of the combined dictionaries+statistics frame
		// does). A crash mid-write must recover to the pre-ANALYZE
		// dictionaries and statistics, never a partial blend of either.
		{"analyze books", func(db *DB) error { return db.AnalyzeTable("books") }},
		{"checkpoint", func(db *DB) error {
			if err := db.Checkpoint(); err != nil && !errors.Is(err, ErrNotDurable) {
				return err
			}
			return nil
		}},
		{"insert wu", exec1(`INSERT INTO authors VALUES (4, 'Wu', 29)`)},
		{"batch more books", func(db *DB) error {
			_, err := db.InsertBatch("books", [][]any{
				{20, "After Snapshot", 4, 2010},
				{21, "Tail Frames", 4, 2011},
			})
			return err
		}},
		{"update post-snapshot", exec1(`UPDATE books SET year = 2012 WHERE id = 21`)},
		{"analyze authors", func(db *DB) error { return db.AnalyzeTable("authors") }},
		{"drop ordered", exec1(`DROP INDEX books_ord`)},
		{"drop index", exec1(`DROP INDEX books_year`)},
		{"delete author-less", exec1(`DELETE FROM books WHERE id = 20`)},
		// The background vacuum's entry point; only books has a hole at
		// this point, so the sweep commits exactly one frame.
		{"vacuum", func(db *DB) error {
			_, err := db.Vacuum()
			return err
		}},
	}
}

// referenceStates returns the dump after each op of an in-memory run:
// states[i] is the state once ops[0:i] have committed.
func referenceStates(t *testing.T, ops []scriptOp) []string {
	t.Helper()
	ref := Open()
	states := []string{dumpState(ref)}
	for _, op := range ops {
		if err := op.run(ref); err != nil {
			t.Fatalf("reference run: op %q: %v", op.name, err)
		}
		states = append(states, dumpState(ref))
	}
	return states
}

// runUntilCrash drives ops through a durable DB on fs and returns how
// many committed before the first error (all of them if none fails).
func runUntilCrash(t *testing.T, fs *faultfs.Mem, ops []scriptOp) int {
	t.Helper()
	db, err := OpenAtOpts("data", DurabilityOptions{FS: fs})
	if err != nil {
		return 0 // crashed during open of the fresh segment
	}
	for i, op := range ops {
		if err := op.run(db); err != nil {
			return i
		}
	}
	db.Close()
	return len(ops)
}

// recoverAndCheck reopens after the injected crash and asserts the
// recovered state is exactly the committed prefix.
func recoverAndCheck(t *testing.T, fs *faultfs.Mem, states []string, committed int, point string) {
	t.Helper()
	fs.ClearCrash()
	db, err := OpenAtOpts("data", DurabilityOptions{FS: fs, VerifyOnRecover: true})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", point, err)
	}
	defer db.Close()
	if got, want := dumpState(db), states[committed]; got != want {
		t.Fatalf("%s: recovered state is not the committed prefix (%d ops):\n--- want ---\n%s--- got ---\n%s",
			point, committed, want, got)
	}
	if err := db.CheckAllFKs(); err != nil {
		t.Fatalf("%s: foreign keys violated after recovery: %v", point, err)
	}
}

func TestCrashMatrixByteOffsets(t *testing.T) {
	ops := crashWorkload()
	states := referenceStates(t, ops)

	// Clean run to size the matrix.
	clean := faultfs.NewMem()
	if got := runUntilCrash(t, clean, ops); got != len(ops) {
		t.Fatalf("clean run stopped at op %d", got)
	}
	total := clean.BytesWritten()
	if total == 0 {
		t.Fatal("workload wrote no bytes")
	}

	for budget := int64(0); budget <= total; budget++ {
		fs := faultfs.NewMem()
		fs.SetWriteBudget(budget)
		committed := runUntilCrash(t, fs, ops)
		recoverAndCheck(t, fs, states, committed, fmt.Sprintf("byte-offset %d", budget))
	}
}

func TestCrashMatrixFsyncBoundaries(t *testing.T) {
	crashAtEveryFsync(t, crashWorkload())
}

// loaderWorkload is a schema build followed by three Loader.LoadXML
// calls. Each document must be one frame — the matrix's unit of
// durability — so a crash anywhere recovers to a whole-document prefix.
// Every load builds its loader afresh and resumes the id counters from
// the store, as reopening a pipeline does.
func loaderWorkload(t *testing.T) []scriptOp {
	t.Helper()
	res, err := core.Map(dtd.MustParse(paper.Example1DTD))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ermap.Build(res.Model, ermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ops []scriptOp
	for _, def := range m.Schema.Tables {
		ops = append(ops, scriptOp{"create " + def.Name, func(db *DB) error { return db.CreateTable(def) }})
	}
	for i, xml := range []string{paper.BookXML, paper.ArticleXML, paper.EditorXML} {
		name := fmt.Sprintf("doc-%d", i)
		ops = append(ops, scriptOp{"load " + name, func(db *DB) error {
			l, err := shred.NewLoader(res, m, db)
			if err != nil {
				return err
			}
			if err := l.ResumeFrom(db); err != nil {
				return err
			}
			_, err = l.LoadXML(xml, name)
			return err
		}})
	}
	return ops
}

func TestCrashMatrixLoaderDocuments(t *testing.T) {
	crashAtEveryFsync(t, loaderWorkload(t))
}

// crashAtEveryFsync loses power at each fsync boundary of the workload
// and requires recovery to the exact committed prefix.
func crashAtEveryFsync(t *testing.T, ops []scriptOp) {
	t.Helper()
	states := referenceStates(t, ops)

	clean := faultfs.NewMem()
	if got := runUntilCrash(t, clean, ops); got != len(ops) {
		t.Fatalf("clean run stopped at op %d", got)
	}
	total := clean.Syncs()
	if total == 0 {
		t.Fatal("workload issued no syncs")
	}

	for budget := int64(0); budget <= total; budget++ {
		fs := faultfs.NewMem()
		fs.DropUnsynced = true // power loss: unsynced page cache is gone
		fs.SetSyncBudget(budget)
		committed := runUntilCrash(t, fs, ops)
		recoverAndCheck(t, fs, states, committed, fmt.Sprintf("fsync-boundary %d", budget))
	}
}

// TestCrashDuringRecovery re-crashes while the torn store is being read
// back: recovery must fail cleanly (the reopened-again store is intact).
func TestCrashDuringRecovery(t *testing.T) {
	ops := crashWorkload()
	states := referenceStates(t, ops)
	fs := faultfs.NewMem()
	if got := runUntilCrash(t, fs, ops); got != len(ops) {
		t.Fatalf("clean run stopped at op %d", got)
	}
	// OpenAt reads files and writes only the fresh segment header
	// (zero bytes), so a tiny write budget crashes segment creation.
	fs.SetWriteBudget(0)
	if _, err := OpenAtOpts("data", DurabilityOptions{FS: fs}); err == nil {
		// Creating the new segment wrote nothing, so the open may
		// legitimately succeed; nothing further to assert.
		return
	}
	recoverAndCheck(t, fs, states, len(ops), "post-recovery-crash")
}
