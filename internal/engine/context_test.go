package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// bigDB builds a table large enough that a cross join crosses many
// cancellation checkpoints.
func bigDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := Open()
	if _, _, err := execSQL(db, "CREATE TABLE nums (n INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO nums VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i%97)
	}
	if _, _, err := execSQL(db, b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryContextCancelled(t *testing.T) {
	db := bigDB(t, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the query starts
	rows, err := querySQLContext(ctx, db, "SELECT COUNT(*) FROM nums a, nums b WHERE a.v = b.v")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatalf("cancelled query returned rows: %v", rows)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	db := bigDB(t, 4096)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := querySQLContext(ctx, db, "SELECT COUNT(*) FROM nums a, nums b WHERE a.v = b.v")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryContextBackgroundUnaffected(t *testing.T) {
	db := bigDB(t, 512)
	rows, err := querySQLContext(context.Background(), db, "SELECT COUNT(*) FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0]; got != int64(512) {
		t.Fatalf("COUNT(*) = %v, want 512", got)
	}
}

func TestExecContextRefusesCancelledMutation(t *testing.T) {
	db := bigDB(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := execSQLContext(ctx, db, "INSERT INTO nums VALUES (1000, 1)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The insert must not have happened.
	rows := mustQuery(db, "SELECT COUNT(*) FROM nums WHERE n = 1000")
	if got := rows.Data[0][0]; got != int64(0) {
		t.Fatalf("cancelled INSERT applied %v rows", got)
	}
}

// TestQueryContextMidFlightCancel cancels while a heavy join is
// running; the statement must abort with context.Canceled, never a
// partial result set.
func TestQueryContextMidFlightCancel(t *testing.T) {
	db := bigDB(t, 8192)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
		close(done)
	}()
	rows, err := querySQLContext(ctx, db, "SELECT COUNT(*) FROM nums a, nums b, nums c WHERE a.v = b.v AND b.v = c.v")
	<-done
	if err == nil {
		// The query legitimately beat the cancel; nothing to assert.
		if rows == nil {
			t.Fatal("nil rows with nil error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatalf("cancelled query returned a partial result: %v", rows)
	}
}
