package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlrdb/internal/faultfs"
)

// TestServingMixStress exercises the serving workload shape against one
// engine under -race: concurrent SELECTs (plain and context-bounded),
// pair-atomic inserts, CREATE/DROP INDEX churn and checkpoints. The
// invariants:
//
//   - no torn reads: every INSERT adds two rows in one statement, so
//     COUNT(*) is always even under the statement-level row locks;
//   - cancelled requests return the context's error and never a
//     partial result (rows and error are mutually exclusive).
func TestServingMixStress(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("store", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, "CREATE TABLE pts (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	// Seed with one pair so COUNT(*) starts even and non-zero.
	if _, _, err := execSQL(db, "INSERT INTO pts VALUES (1, 1), (2, 1)"); err != nil {
		t.Fatal(err)
	}

	const (
		inserters    = 4
		readers      = 4
		pairsPerGoro = 200
		readsPerGoro = 300
	)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	report := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}
	stop := make(chan struct{})

	// Pair-atomic inserters with disjoint id ranges.
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(1_000_000 * (w + 1))
			for i := int64(0); i < pairsPerGoro; i++ {
				id := base + 2*i
				stmt := fmt.Sprintf("INSERT INTO pts VALUES (%d, %d), (%d, %d)", id, i%97, id+1, i%97)
				if _, _, err := execSQL(db, stmt); err != nil {
					report("insert: %v", err)
					return
				}
			}
		}(w)
	}

	// Readers asserting the pair invariant.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerGoro; i++ {
				rows, err := querySQL(db, "SELECT COUNT(*) FROM pts")
				if err != nil {
					report("count: %v", err)
					return
				}
				if n := rows.Data[0][0].(int64); n%2 != 0 {
					report("torn read: COUNT(*) = %d is odd", n)
					return
				}
			}
		}()
	}

	// Context-bounded readers: tiny deadlines race real execution; the
	// outcome must be a complete result or the context's error, nothing
	// in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%200)*time.Microsecond)
			rows, err := querySQLContext(ctx, db, "SELECT COUNT(*) FROM pts a, pts b WHERE a.v = b.v")
			cancel()
			switch {
			case err == nil:
				if rows == nil || len(rows.Data) != 1 {
					report("bounded query: nil/partial rows with nil error")
					return
				}
			case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
				if rows != nil {
					report("bounded query: partial result alongside %v", err)
					return
				}
			default:
				report("bounded query: %v", err)
				return
			}
		}
	}()

	// Index churn on a non-constraint index.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := execSQL(db, "CREATE INDEX pts_v ON pts (v)"); err != nil {
				report("create index: %v", err)
				return
			}
			if _, _, err := execSQL(db, "DROP INDEX pts_v"); err != nil {
				report("drop index: %v", err)
				return
			}
			// The constraint index must refuse drops throughout the churn.
			if err := db.DropIndex("pts_pk"); err == nil || errors.Is(err, ErrNoIndex) {
				report("constraint index dropped mid-stress: %v", err)
				return
			}
		}
	}()

	// Periodic checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := db.Checkpoint(); err != nil {
				report("checkpoint: %v", err)
				return
			}
		}
	}()

	// Poll until the inserters have landed every pair (or something
	// failed), then stop the open-ended workers.
	doneCh := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneCh)
	}()
	want := int64(2 + 2*inserters*pairsPerGoro)
	deadline := time.After(60 * time.Second)
poll:
	for {
		select {
		case <-deadline:
			break poll
		case <-time.After(10 * time.Millisecond):
		}
		rows, err := querySQL(db, "SELECT COUNT(*) FROM pts")
		if err != nil {
			break poll
		}
		if rows.Data[0][0].(int64) == want {
			break poll
		}
		select {
		case e := <-errCh:
			close(stop)
			<-doneCh
			t.Fatal(e)
		default:
		}
	}
	close(stop)
	<-doneCh
	select {
	case e := <-errCh:
		t.Fatal(e)
	default:
	}

	rows, err := querySQL(db, "SELECT COUNT(*) FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].(int64); got != want {
		t.Fatalf("final COUNT(*) = %d, want %d", got, want)
	}
	// The store must recover to the same state after the churn.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := OpenAtOpts("store", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	rrows, err := querySQL(rdb, "SELECT COUNT(*) FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	if got := rrows.Data[0][0].(int64); got != want {
		t.Fatalf("recovered COUNT(*) = %d, want %d", got, want)
	}
	if !strings.Contains(fmt.Sprint(rdb.TableNames()), "pts") {
		t.Fatal("recovered store lost the table")
	}
}

// TestSnapshotStressUnderChurn extends the serving mix with the MVCC
// invariants, under -race:
//
//   - snapshot stability: a cursor opened between whole-table UPDATEs
//     streams one uniform generation — it never mixes pre- and
//     post-update rows, no matter how many updates commit mid-stream;
//   - torn-read freedom: every streamed row is a complete generation
//     value, asserted by the uniformity check itself;
//   - vacuum safety: concurrent DELETE/INSERT churn plus explicit
//     compaction never perturbs an open cursor.
func TestSnapshotStressUnderChurn(t *testing.T) {
	db := Open()
	if _, _, err := execSQL(db, "CREATE TABLE gens (id INTEGER PRIMARY KEY, gen INTEGER)"); err != nil {
		t.Fatal(err)
	}
	const stable = 50 // rows carrying the generation invariant (id < 100)
	for i := 0; i < stable; i++ {
		if _, _, err := execSQL(db, fmt.Sprintf("INSERT INTO gens VALUES (%d, 0)", i)); err != nil {
			t.Fatal(err)
		}
	}

	var writersWg, readersWg sync.WaitGroup
	errCh := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}
	stop := make(chan struct{})

	// Writer: bump every stable row to a fresh generation in one
	// statement, as fast as the engine allows.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := execSQL(db, fmt.Sprintf("UPDATE gens SET gen = %d WHERE id < 100", k)); err != nil {
				report("update: %v", err)
				return
			}
		}
	}()

	// Hole churn + vacuum: transient rows (id >= 1000) appear and
	// disappear, and compaction renumbers the table underneath any open
	// cursor.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 1000 + i%32
			if _, _, err := execSQL(db, fmt.Sprintf("INSERT INTO gens VALUES (%d, -1)", id)); err != nil {
				report("churn insert: %v", err)
				return
			}
			if _, _, err := execSQL(db, fmt.Sprintf("DELETE FROM gens WHERE id = %d", id)); err != nil {
				report("churn delete: %v", err)
				return
			}
			if i%8 == 0 {
				if _, err := db.CompactTable("gens"); err != nil {
					report("compact: %v", err)
					return
				}
			}
		}
	}()

	// Snapshot readers: each opens a cursor, dawdles mid-stream so many
	// updates commit underneath it, and requires every streamed gen to
	// be the same value — the statement-atomic snapshot contract.
	const readers = 4
	for w := 0; w < readers; w++ {
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			for r := 0; r < 40; r++ {
				cur, err := db.QueryCursorContext(context.Background(), "SELECT gen FROM gens WHERE id < 100 ORDER BY id")
				if err != nil {
					report("open: %v", err)
					return
				}
				var first int64
				n := 0
				for cur.Next() {
					g := cur.Row()[0].(int64)
					if n == 0 {
						first = g
					} else if g != first {
						report("snapshot mixed generations: row %d has gen %d, first was %d", n, g, first)
						cur.Close()
						return
					}
					n++
					if n%16 == 0 {
						time.Sleep(200 * time.Microsecond)
					}
				}
				if err := cur.Err(); err != nil {
					report("stream: %v", err)
					return
				}
				if n != stable {
					report("snapshot saw %d stable rows, want %d", n, stable)
					return
				}
			}
		}()
	}

	// The readers are the bounded part of the workload: wait for them,
	// then stop the open-ended writers.
	readersDone := make(chan struct{})
	go func() {
		readersWg.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-time.After(120 * time.Second):
		t.Error("readers did not finish in time")
	}
	close(stop)
	writersWg.Wait()
	select {
	case e := <-errCh:
		t.Fatal(e)
	default:
	}
	if db.PinnedCursors() != 0 {
		t.Fatalf("stress leaked %d cursor pins", db.PinnedCursors())
	}
}
