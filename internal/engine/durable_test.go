package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/obs"
)

// dumpState renders the full logical state — catalog, index definitions
// and the row slice with its holes (positions are part of the durable
// contract: WAL update/delete frames reference them) — as a canonical
// string, so two databases are behaviorally identical iff their dumps
// are equal.
func dumpState(db *DB) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sb strings.Builder
	for _, name := range db.order {
		t := db.tables[name]
		def, _ := json.Marshal(t.def)
		fmt.Fprintf(&sb, "table %s def=%s\n", name, def)
		ixNames := make([]string, 0, len(t.indexes))
		for n := range t.indexes {
			ixNames = append(ixNames, n)
		}
		sort.Strings(ixNames)
		for _, n := range ixNames {
			ix := t.indexes[n]
			fmt.Fprintf(&sb, "  index %s cols=%v unique=%v\n", n, ix.cols, ix.unique)
		}
		oxNames := make([]string, 0, len(t.ordered))
		for n := range t.ordered {
			oxNames = append(oxNames, n)
		}
		sort.Strings(oxNames)
		for _, n := range oxNames {
			fmt.Fprintf(&sb, "  ordered %s col=%d\n", n, t.ordered[n].col)
		}
		if t.dicts != nil {
			fmt.Fprintf(&sb, "  analyzed cols=%d\n", len(t.dicts))
			for c, d := range t.dicts {
				if d != nil {
					fmt.Fprintf(&sb, "  dict %s vals=%q\n", t.def.Columns[c].Name, d.vals)
				}
			}
		}
		if t.stats != nil {
			// ANALYZE statistics ride the same frame as the dictionaries
			// and the snapshot header, so they are part of the durable
			// contract: a crash must recover exactly the logged statistics
			// or none (never a blend).
			stats, _ := json.Marshal(t.stats)
			fmt.Fprintf(&sb, "  stats %s\n", stats)
		}
		for pos, row := range t.rows {
			fmt.Fprintf(&sb, "  row %d %#v\n", pos, row)
		}
	}
	return sb.String()
}

// runWorkload drives a representative mix of mutations through db.
func runWorkload(t testing.TB, db *DB) {
	t.Helper()
	err := execScript(db, `
CREATE TABLE authors (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INTEGER);
CREATE TABLE books (id INTEGER PRIMARY KEY, title TEXT NOT NULL, author INTEGER,
  year INTEGER, FOREIGN KEY (author) REFERENCES authors (id));
INSERT INTO authors VALUES (1, 'Smith', 40);
INSERT INTO authors VALUES (2, 'Brown', 35);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBatch("books", [][]any{
		{10, "XML RDBMS", 1, 1999},
		{11, "Go Systems", 2, 2005},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBatchMulti(
		[]string{"authors", "books"},
		[][][]any{{{3, "Lee", 50}}, {{12, "Data Models", 3, 2001}}},
	); err != nil {
		t.Fatal(err)
	}
	err = execScript(db, `
CREATE INDEX books_year ON books (year);
UPDATE books SET year = 2002 WHERE id = 12;
DELETE FROM books WHERE id = 11;
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db)
	want := dumpState(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenAtOpts(dir, DurabilityOptions{VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpState(db2); got != want {
		t.Errorf("state changed across reopen:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	rows := mustQuery(db2, `SELECT title FROM books WHERE year > 2000 ORDER BY title`)
	if len(rows.Data) != 1 || rows.Data[0][0] != "Data Models" {
		t.Errorf("post-recovery query got %v", rows.Data)
	}
	// The recovered database accepts new durable writes.
	if _, err := db2.Insert("authors", []any{4, "Wu", 29}); err != nil {
		t.Fatal(err)
	}
}

func TestDurableTornTailTolerated(t *testing.T) {
	fs := faultfs.NewMem()
	dir := "data"
	db, err := OpenAtOpts(dir, DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db)
	full := dumpState(db)
	db.Close()

	segs, _, err := listWALFiles(fs, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	seg := filepath.Join(dir, segs[0])
	data, err := readAll(fs, seg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference states: the dump after each frame of the intact log.
	ref := Open()
	ref.enforceFK = false
	states := []string{dumpState(ref)}
	for _, fr := range decodeFrames(data) {
		if err := ref.applyFrame(fr); err != nil {
			t.Fatal(err)
		}
		states = append(states, dumpState(ref))
	}
	if states[len(states)-1] != full {
		t.Fatal("frame-by-frame replay of the intact log diverged from the live state")
	}
	// Chop the tail at every length: recovery must never error, and must
	// land exactly on the state of the last frame still fully contained.
	for cut := 0; cut <= len(data); cut++ {
		fs2 := faultfs.NewMem()
		fs2.MkdirAll(dir)
		f, _ := fs2.Create(seg)
		f.Write(data[:cut])
		f.Close()
		db2, err := OpenAtOpts(dir, DurabilityOptions{FS: fs2, VerifyOnRecover: true})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if got, want := dumpState(db2), states[len(decodeFrames(data[:cut]))]; got != want {
			t.Fatalf("cut=%d: recovered state is not the longest valid prefix:\n--- want ---\n%s--- got ---\n%s", cut, want, got)
		}
		db2.Close()
	}
}

func TestDurableSnapshotRotation(t *testing.T) {
	fs := faultfs.NewMem()
	dir := "data"
	m := obs.New()
	db, err := OpenAtOpts(dir, DurabilityOptions{FS: fs, SnapshotEvery: 10, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 95; i++ {
		if _, err := db.Insert("kv", []any{i, fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpState(db)
	db.Close()

	segs, snaps, err := listWALFiles(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Errorf("want exactly one surviving snapshot, got %v", snaps)
	}
	if len(segs) != 1 {
		t.Errorf("want exactly one surviving segment, got %v", segs)
	}
	snap := m.Snapshot()
	if snap.WAL.Snapshots == 0 || snap.WAL.Frames == 0 {
		t.Errorf("metrics not recorded: %+v", snap.WAL)
	}

	db2, err := OpenAtOpts(dir, DurabilityOptions{FS: fs, VerifyOnRecover: true, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpState(db2); got != want {
		t.Errorf("snapshot+tail recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestDurableExplicitCheckpointAndContinue(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the checkpoint land in the fresh segment.
	if _, err := db.Insert("authors", []any{4, "Wu", 29}); err != nil {
		t.Fatal(err)
	}
	want := dumpState(db)
	db.Close()

	db2, err := OpenAtOpts(dir, DurabilityOptions{VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpState(db2); got != want {
		t.Errorf("checkpoint+tail recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestDurableConcurrentInserts(t *testing.T) {
	fs := faultfs.NewMem()
	dir := "data"
	db, err := OpenAtOpts(dir, DurabilityOptions{FS: fs, SnapshotEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []string{"a", "b", "c"} {
		if _, _, err := execSQL(db, `CREATE TABLE `+tb+` (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
			t.Fatal(err)
		}
	}
	const perTable = 120
	var wg sync.WaitGroup
	for _, tb := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(tb string) {
			defer wg.Done()
			for i := 0; i < perTable; i++ {
				if _, err := db.Insert(tb, []any{i, tb}); err != nil {
					t.Errorf("insert %s/%d: %v", tb, i, err)
					return
				}
			}
		}(tb)
	}
	wg.Wait()
	db.Close()

	db2, err := OpenAtOpts(dir, DurabilityOptions{FS: fs, VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, tb := range []string{"a", "b", "c"} {
		if n := db2.RowCount(tb); n != perTable {
			t.Errorf("table %s: recovered %d rows, want %d", tb, n, perTable)
		}
	}
}

// TestStaleSnapshotFallbackRefused: when the newest snapshot is corrupt
// and the WAL no longer covers its frames (they were deleted at
// checkpoint), recovery must fail loudly instead of silently handing
// back a much older state — unless AllowStale opts into the loss, which
// is then counted.
func TestStaleSnapshotFallbackRefused(t *testing.T) {
	fs := faultfs.NewMem()
	dir := "data"
	db, err := OpenAtOpts(dir, DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("authors", []any{4, "Wu", 29}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	_, snaps, err := listWALFiles(fs, dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	snap := filepath.Join(dir, snaps[0])
	data, err := readAll(fs, snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // corrupt the snapshot body
	f, err := fs.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()

	if _, err := OpenAtOpts(dir, DurabilityOptions{FS: fs}); err == nil {
		t.Fatal("open silently recovered past an unreadable snapshot the WAL does not cover")
	} else if !strings.Contains(err.Error(), "AllowStale") {
		t.Fatalf("refusal should point at AllowStale, got: %v", err)
	}

	m := obs.New()
	db2, err := OpenAtOpts(dir, DurabilityOptions{FS: fs, AllowStale: true, Metrics: m})
	if err != nil {
		t.Fatalf("AllowStale open failed: %v", err)
	}
	defer db2.Close()
	if got := m.Snapshot().WAL.StaleFallbacks; got != 1 {
		t.Errorf("StaleFallbacks = %d, want 1", got)
	}
}

// TestUpdateDeleteRollbackOnWALFailure: when the WAL append fails, the
// in-memory changes of the UPDATE/DELETE are unwound — the live state
// must never run ahead of the durable state.
func TestUpdateDeleteRollbackOnWALFailure(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("data", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert("kv", []any{i, fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpState(db)

	fs.SetSyncBudget(0) // the next WAL barrier fails
	res, _, err := execSQL(db, `UPDATE kv SET v = 'changed' WHERE k >= 0`)
	if err == nil {
		t.Fatal("UPDATE with a failing WAL append reported success")
	}
	if res.RowsAffected != 0 {
		t.Errorf("UPDATE reported %d rows changed after rollback", res.RowsAffected)
	}
	if got := dumpState(db); got != want {
		t.Errorf("UPDATE left in-memory state ahead of the WAL:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// The writer is now broken; DELETE must also fail and unwind.
	res, _, err = execSQL(db, `DELETE FROM kv WHERE k = 1`)
	if err == nil {
		t.Fatal("DELETE with a broken WAL reported success")
	}
	if res.RowsAffected != 0 {
		t.Errorf("DELETE reported %d rows removed after rollback", res.RowsAffected)
	}
	if got := dumpState(db); got != want {
		t.Errorf("DELETE left in-memory state ahead of the WAL:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Errorf("indexes inconsistent after rollback: %v", err)
	}
}

func TestCheckpointOnInMemoryDB(t *testing.T) {
	db := Open()
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("Checkpoint on in-memory DB: got %v, want ErrNotDurable", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close on in-memory DB: %v", err)
	}
}

// TestDurableUnsupportedFormatRefused: an intact (CRC-valid) WAL frame
// of a kind this build does not read, or an intact snapshot of another
// format version, is neither a torn tail to truncate nor a damaged
// snapshot to fall back past. The open fails with ErrUnsupportedFormat —
// AllowStale included — and leaves the file as it was.
func TestDurableUnsupportedFormatRefused(t *testing.T) {
	const dir = "data"
	// closedStore runs the workload and returns the store's filesystem
	// with the paths of its one segment and (after a checkpoint) snapshot.
	closedStore := func(t *testing.T, checkpoint bool) (fs *faultfs.Mem, segment, snapshot string) {
		t.Helper()
		fs = faultfs.NewMem()
		db, err := OpenAtOpts(dir, DurabilityOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, db)
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
		segs, snaps, err := listWALFiles(fs, dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("want one segment, got %v (%v)", segs, err)
		}
		if checkpoint {
			snapshot = filepath.Join(dir, snaps[0])
		}
		return fs, filepath.Join(dir, segs[0]), snapshot
	}
	refused := func(t *testing.T, fs *faultfs.Mem, name string, planted []byte) {
		t.Helper()
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(planted)
		f.Sync()
		f.Close()
		_, err = OpenAtOpts(dir, DurabilityOptions{FS: fs, AllowStale: true})
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("open: got %v, want ErrUnsupportedFormat", err)
		}
		after, err := readAll(fs, name)
		if err != nil || !bytes.Equal(after, planted) {
			t.Errorf("failed open modified %s (%d -> %d bytes, %v)", name, len(planted), len(after), err)
		}
	}

	t.Run("wal frame kind 7", func(t *testing.T) {
		fs, segment, _ := closedStore(t, false)
		seg, err := readAll(fs, segment)
		if err != nil {
			t.Fatal(err)
		}
		// What the retired dictionary-only ANALYZE record looked like: the
		// next sequence number, kind 7, a dictionary section.
		body := binary.LittleEndian.AppendUint64(nil, uint64(len(decodeFrames(seg))+1))
		body = append(body, 7)
		body = append(body, encodeDictSection("books", make([]*colDict, 4))...)
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(body)))
		seg = append(seg, body...)
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
		refused(t, fs, segment, seg)
	})
	t.Run("snapshot version 1", func(t *testing.T) {
		fs, _, snapshot := closedStore(t, true)
		snap, err := readAll(fs, snapshot)
		if err != nil {
			t.Fatal(err)
		}
		snap = snap[:len(snap)-4]
		snap[len(snapMagic)-1] = '1'
		refused(t, fs, snapshot, binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(snap)))
	})
}
